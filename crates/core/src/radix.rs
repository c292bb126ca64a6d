//! Multi-pass radix sort for the shard planner's `(k-mer bits, id)`
//! pairs.
//!
//! The planner needs its query batch ordered by k-mer integer value so
//! that routing degenerates to a streaming merge-join and each shard can
//! be matched with a forward-only merge cursor. Earlier revisions ran one
//! MSD counting pass and finished each bucket with a comparison sort; at
//! bench scale those per-bucket `sort_unstable` calls were still
//! ~38 ns/key — the dominant planning cost. This module replaces the
//! comparison sorts with **counting passes end to end**, planned over the
//! *varying-bit window* of the batch:
//!
//! * **pass planning** — the OR-fold of `key ^ first_key` (`diff`) marks
//!   every bit position where at least two keys differ. The window
//!   `[trailing_zeros(diff), 64 - leading_zeros(diff))` is carved into
//!   near-equal digits of at most [`MAX_DIGIT_BITS`] bits, and any digit
//!   whose `diff` slice is zero is **skipped** outright: a stable
//!   counting pass on a constant digit is the identity permutation.
//!   Synthetic databases and deduped streams often vary in far fewer
//!   than 64 bits, so skipping regularly removes whole passes. The
//!   [`crate::obs::CounterId::SortPassesRun`] /
//!   [`crate::obs::CounterId::SortPassesSkipped`] counters report the
//!   split;
//! * **one global pass, then cache-resident LSD** — a counting scatter
//!   over the full batch is DRAM-bound: every pass reads the whole pair
//!   array and write-allocates the whole destination, so its cost is
//!   nearly independent of digit width (measured ~9 ns/key here against
//!   ~1.3 ns/key for the histogram). Chaining 5–6 such passes LSD-style
//!   would move the entire batch through DRAM once per pass and lose to
//!   the comparison sort it replaces. Instead the pipeline runs exactly
//!   **one** global pass — an MSD scatter on the *most significant*
//!   planned window — and finishes each resulting bucket with **LSD
//!   counting passes over the remaining windows**, where both ping-pong
//!   buffers fit in cache and a pass costs ~3 ns/key instead of ~9.
//!   Within a bucket the top window is constant, so each segment
//!   *replans* from its own diff fold: segments whose keys cluster skip
//!   further windows, and a segment whose keys are all equal does no
//!   work at all;
//! * **adaptive pair narrowing** — a counting pass is pure data
//!   movement, so bytes-per-record is the whole cost model. After the
//!   global pass every segment's keys agree on the top window, and the
//!   segment replan knows exactly which bits still vary; when a 32-bit
//!   window covers enough of them, the bucket-local passes run on
//!   8-byte [`NarrowPair`]s (`u32` key window + `u32` payload) instead
//!   of 12-byte [`Pair`]s — a third less traffic per scan on the
//!   pipeline's dominant phase. Two shapes exist:
//!   - *exact* (segment diff spans ≤ 32 bits): the window holds every
//!     varying bit, the payload is the real id, and the emit pass
//!     reconstructs each `u64` key losslessly from the segment's
//!     constant bits OR the sorted window value;
//!   - *tie-ranked* (wider spans): the window holds the **top** varying
//!     bits, the payload is the pair's segment-local rank, the repack
//!     pass streams a shadow copy of the segment, and the emit pass
//!     gathers whole pairs by rank. Pairs equal in the window but
//!     differing below it land in a run that a final scan re-sorts by
//!     `(key, id)` — equivalent to the stable order because ids are
//!     assigned in input order. The fixup makes *any* top window
//!     correct, so the planner also costs a minimal window of
//!     ~log₂ m + [`TIE_WINDOW_SLACK`] bits — wide enough that
//!     collisions stay rare, a fraction of the full window's passes —
//!     against the 32-bit one and takes whichever moves fewer bytes.
//!
//!   The repack fuses into the first scatter pass and the widen into
//!   the last (both read their scan anyway), so narrowing needs at
//!   least two planned passes to exist — and it only fires when its
//!   closed-form byte total beats the wide plan's, a pure function of
//!   the segment's size and diff fold (never of threads), so the
//!   narrow/wide choice is deterministic and the output byte-identical
//!   either way. When the *global* OR-fold already spans ≤ 32 bits the
//!   whole batch narrows up front under the `sort.narrow` span —
//!   histogram, scatter, and flush all move 8-byte records — and
//!   widens after the local passes;
//! * **multi-lane and fused histograms** — a single count table
//!   serializes on store-to-load forwarding whenever consecutive keys
//!   share a bucket. The global counting scan therefore fills four
//!   independent lane tables, one key per lane per iteration, and
//!   column-sums the lanes at close — same integer totals, same
//!   output, fewer same-slot stalls. The lane fan-out is earned, not
//!   assumed: zeroing 4× the buckets costs more than it saves on a
//!   short scan, so inputs under 4 × buckets keep the single table.
//!   Bucket-local sorts go further: a digit histogram is an
//!   order-independent integer sum, so **one scan of the segment fills
//!   every planned pass's table at once** ([`count_all`]) — the counts
//!   equal what dedicated per-pass scans would produce, at one source
//!   read instead of one per pass, and the r interleaved tables give
//!   the same dependency-breaking the lanes do;
//! * **ping-pong buffers** — the global pass scatters `pairs → scratch`
//!   and the two `Vec`s swap (an O(1) pointer exchange); each bucket
//!   then ping-pongs between the *same index range* of the two buffers,
//!   pre-copying once when its pass count is odd so the sorted result
//!   always lands back in `pairs` (narrowed segments ping-pong two
//!   worker-private `NarrowPair` buffers instead and never pre-copy:
//!   their fused emit pass targets `a` directly). No pass allocates:
//!   the buffers and every count/staging table live in the caller's
//!   [`SortScratch`], recycled through the device's scratch arena;
//! * **write-combining scatter** — a naive counting scatter writes one
//!   12-byte pair at a time to `buckets` random cursors, which is
//!   bandwidth-bound on partial cache lines. The global pass stages
//!   pairs in a per-worker, per-bucket buffer of [`STAGE`] slots
//!   (~1.5 cache lines; exactly one line for 8-byte narrowed records)
//!   and flushes full groups with one wide `copy_from_slice`, so the
//!   destination sees mostly full-line writes. A pair's final position
//!   is `starts[digit] + rank-in-input-order`, fixed by the histogram
//!   alone — staging changes *when* bytes move, never *where* — so the
//!   output is byte-identical to the unstaged scatter. Bucket-local
//!   passes skip the staging: their destinations are already
//!   cache-resident, where staging is pure overhead. Their scatter
//!   scans instead issue a [`LOOKAHEAD`]-element touch of the source
//!   (`black_box` load — the crate forbids `unsafe`, so no prefetch
//!   intrinsics) to keep the next source lines in flight ahead of the
//!   random-destination writes;
//! * **compact pairs** — [`Pair`] packs to 12 bytes
//!   (`#[repr(C, packed(4))]`, `u64` key + `u32` id; ids fit because
//!   `SieveError::BatchTooLarge` caps batches at `u32::MAX`), so each
//!   pass moves 25% fewer bytes than the old 16-byte tuple — and
//!   narrowed passes a third less again;
//! * **parallel machinery** — at [`PARALLEL_SORT`] pairs and up, the
//!   global pass keeps the owned-run design: per-worker chunk
//!   histograms, then buckets cut into contiguous runs of near-equal
//!   pair mass, each worker re-scanning the source and writing only its
//!   run's pairs into its own disjoint region (`split_at_mut`, no
//!   `unsafe`). Because each worker re-reads the full source, the
//!   fan-out is capped at the host's *physical* core count
//!   ([`par::host_parallelism`]). The bucket-local sorts are dealt
//!   round-robin over a [`par::StealQueue`] of disjoint segment slices,
//!   so a worker that drains its stripe steals the heaviest remainder of
//!   a neighbour;
//! * **adaptive cutover** — per segment (and for the whole batch), a
//!   cost model built from measured constants (see [`lsd_is_cheaper`],
//!   calibrated by the `plan_sort` bench) decides between counting
//!   passes and a comparison sort: tiny segments can't amortize their
//!   digit tables.
//!
//! Determinism: every pass is a stable counting scatter whose
//! destinations are pure functions of the key bits and input ranks, and
//! segment boundaries depend only on the histogram, so the output equals
//! a stable sort by key — and, since callers assign ids in input order,
//! `sort_unstable_by_key` on `(key, id)` — for every thread count and
//! scatter-worker count.

use crate::obs;
use crate::par;
use crate::prof;
use crate::trace;

/// A sort record: the 2-bit-packed k-mer value and the query id it came
/// from, packed to 12 bytes so each radix pass moves 25% fewer bytes than
/// the naturally-aligned 16-byte tuple. Ids are unique, so `(key, id)` is
/// a total order and `sort_unstable_by_key` on it equals a stable sort by
/// `key` whenever ids are assigned in input order — the property the
/// radix pipeline guarantees by construction and the comparison fallback
/// relies on. Fields are private because a packed struct cannot hand out
/// field references; the by-value accessors copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(C, packed(4))]
pub(crate) struct Pair {
    key: u64,
    id: u32,
}

impl Pair {
    /// Builds a record.
    #[inline]
    pub(crate) fn new(key: u64, id: u32) -> Self {
        Self { key, id }
    }

    /// The k-mer bits (sort key).
    #[inline]
    pub(crate) fn key(self) -> u64 {
        self.key
    }

    /// The query id (tie order / scatter target).
    #[inline]
    pub(crate) fn id(self) -> u32 {
        self.id
    }
}

/// An 8-byte narrowed record: a 32-bit window of the key plus a 32-bit
/// payload — the real id when the window covers every varying bit of its
/// segment (*exact*), or the pair's segment-local rank when it covers
/// only the top 32 (*tie-ranked*; the emit pass gathers the full pair
/// back by rank). Bytes-per-record is the whole cost of a counting pass,
/// so each narrowed scan moves a third less than a [`Pair`] scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(C)]
struct NarrowPair {
    key: u32,
    id: u32,
}

/// Widest digit a single pass may cover. 11 bits (≤ 2048 buckets) keeps a
/// worker's staging area (`2048 × STAGE × 12 B = 192 KB`) plus its count
/// tables cache-resident, which is what makes the write-combining staging
/// pay; a wider digit would trade pass count for staging that thrashes.
const MAX_DIGIT_BITS: u32 = 11;

/// Narrowest digit a segment replan may choose: below 16 buckets the
/// extra passes cost more than the table overhead they avoid.
const MIN_DIGIT_BITS: u32 = 4;

/// Most passes any plan can hold (a full 64-bit span at minimum width).
const MAX_PASSES: usize = 64usize.div_ceil(MIN_DIGIT_BITS as usize);

/// Pair slots staged per bucket before a wide flush: 8 × 12 B = 96 B,
/// 1.5 cache lines — enough that most destination traffic moves in full
/// lines, small enough that the whole staging area stays cache-resident.
/// For 8-byte narrowed records the same 8 slots are exactly one line.
const STAGE: usize = 8;

/// Below this many pairs the per-pass fan-out (histograms, scatter, and
/// the segment queue) stays sequential: a spawn costs more than it saves.
const PARALLEL_SORT: usize = 1 << 14;

/// Bytes per [`Pair`] — the unit of every analytic traffic formula the
/// sort reports to [`crate::prof`] (a counting pass moves whole records).
const PAIR_BYTES: u64 = std::mem::size_of::<Pair>() as u64;

/// Bytes per [`NarrowPair`] — the narrowed passes' traffic unit.
const NARROW_BYTES: u64 = std::mem::size_of::<NarrowPair>() as u64;

/// Extra bits a minimal tie-ranked window carries beyond log₂ m: with
/// `s` slack bits, the expected number of same-window collisions in an
/// m-record segment is ~m²/2^(log₂ m + s) = m/2^s — at 8 bits, one
/// 2-element fixup sort per ~256 records, far below a counting pass.
const TIE_WINDOW_SLACK: u32 = 8;

/// Source look-ahead distance of the bucket-local scatter scans, in
/// records: the scan touches the record this far ahead once per 4-record
/// group (≥ 2 cache lines for either width), so source lines stream in
/// ahead of the random-destination writes.
const LOOKAHEAD: usize = 16;

/// One counting pass: a stable scatter on the `bits`-wide digit at bit
/// offset `shift`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Pass {
    shift: u32,
    bits: u32,
}

/// Digit of `key` under `pass`.
#[inline]
fn pdigit(key: u64, pass: Pass) -> usize {
    ((key >> pass.shift) as usize) & ((1usize << pass.bits) - 1)
}

/// Carves the varying-bit window of `diff` into balanced digits of at
/// most `width` bits and drops every digit whose `diff` slice is zero (a
/// stable scatter on a constant digit is the identity). Returns the
/// surviving passes in LSD order plus the skipped count. `diff` must be
/// nonzero; the window's edge digits always survive (the lowest and
/// highest set bits of `diff` land inside them).
fn plan_passes(diff: u64, width: u32) -> ([Pass; MAX_PASSES], usize, u64) {
    debug_assert_ne!(diff, 0);
    debug_assert!((MIN_DIGIT_BITS..=MAX_DIGIT_BITS).contains(&width));
    let lo = diff.trailing_zeros();
    let hi = 64 - diff.leading_zeros();
    let span = hi - lo;
    let windows = span.div_ceil(width);
    let mut passes = [Pass::default(); MAX_PASSES];
    let mut run = 0usize;
    let mut skipped = 0u64;
    for w in 0..windows {
        let start = lo + span * w / windows;
        let bits = lo + span * (w + 1) / windows - start;
        if (diff >> start) & ((1u64 << bits) - 1) == 0 {
            skipped += 1;
        } else {
            passes[run] = Pass { shift: start, bits };
            run += 1;
        }
    }
    debug_assert!(run >= 1);
    (passes, run, skipped)
}

/// Measured 1-thread cost constants for the adaptive cutover, in
/// sixteenths of a nanosecond (integer arithmetic, no floats on the plan
/// path). Calibrated against the `plan_sort` criterion group: the
/// comparison sort runs at ~2.3 ns/key per log₂ level; a cache-resident
/// counting pass costs ~1.9 ns/key of scan+scatter plus ~1 ns per table
/// entry for zeroing and prefix-summing — the charge that makes counting
/// passes lose on segments too small to fill their digit tables. The
/// exact crossover (a couple hundred keys under a full-width plan)
/// barely matters because both paths are microseconds there.
const CMP_NS_X16_PER_KEY_LEVEL: u64 = 36;
const LSD_NS_X16_PER_KEY_PASS: u64 = 30;
const LSD_NS_X16_PER_BUCKET_PASS: u64 = 16;

/// The cutover's cost model: predicted counting-pipeline time vs.
/// predicted comparison time for `n` pairs under `passes`. A pure
/// function of the batch (never of threads), so the choice — and with it
/// the output — is identical across thread counts. The model judges the
/// *wide* plan: narrowing is a traffic optimization of a sort already
/// chosen, so it never changes which segments run LSD passes.
fn lsd_is_cheaper(n: usize, passes: &[Pass]) -> bool {
    let n = n as u64;
    let levels = u64::from(64 - n.leading_zeros());
    let cmp = n * levels * CMP_NS_X16_PER_KEY_LEVEL;
    let lsd: u64 = passes
        .iter()
        .map(|p| n * LSD_NS_X16_PER_KEY_PASS + (1u64 << p.bits) * LSD_NS_X16_PER_BUCKET_PASS)
        .sum();
    lsd < cmp
}

/// Reusable tables of the sort pipeline, checked out of the device's
/// scratch arena alongside the pair buffers so no pass allocates once the
/// capacities are warm.
#[derive(Debug, Default)]
pub(crate) struct SortScratch {
    /// Histogram of the global pass (bucket counts).
    counts: Vec<u32>,
    /// Exclusive prefix sums of `counts` (bucket start offsets).
    starts: Vec<u32>,
    /// Owned-run cut points of the parallel scatter.
    cuts: Vec<usize>,
    /// Per-worker staging/cursor/count tables; index 0 serves the
    /// sequential path.
    workers: Vec<WorkerScratch>,
    /// Whole-batch [`NarrowPair`] buffer of the global narrow path.
    narrow: Vec<NarrowPair>,
    /// Its ping-pong twin.
    narrow_scratch: Vec<NarrowPair>,
}

/// One worker's private tables (see [`scatter_run`] and
/// [`SortRec::sort_segment`]).
#[derive(Debug, Default)]
struct WorkerScratch {
    /// Write-combining staging: [`STAGE`] pair slots per owned bucket.
    stage: Vec<Pair>,
    /// Narrowed-record staging of the global narrow path.
    stage_narrow: Vec<NarrowPair>,
    /// Staged-record count per owned bucket.
    fill: Vec<u32>,
    /// Write cursor per owned bucket, relative to the worker's region.
    cursors: Vec<u32>,
    /// Digit count table: a chunk histogram during the global pass, then
    /// the per-pass table of every bucket-local sort this worker runs.
    /// Counting scans grow it to 4 lane tables and fold back.
    table: Vec<u32>,
    /// Ping-pong buffers of this worker's narrowed segment sorts.
    na: Vec<NarrowPair>,
    nb: Vec<NarrowPair>,
}

/// A record the radix pipeline can move: [`Pair`] or [`NarrowPair`]. The
/// global pipeline (histogram, owned-run scatter, segment deal) is
/// generic over this, so the narrowed batch reuses the exact machinery —
/// and the exact determinism argument — of the wide one.
trait SortRec: Copy + Default + Send + Sync {
    /// Bytes one record moves per scan — the unit of the analytic
    /// traffic formulas.
    const BYTES: u64;
    /// The radix digit source.
    fn sort_key(self) -> u64;
    /// This width's staging buffer plus the shared fill/cursor tables of
    /// a scatter worker (split borrows of disjoint fields).
    fn split_stage(ws: &mut WorkerScratch) -> (&mut Vec<Self>, &mut Vec<u32>, &mut Vec<u32>);
    /// Plans one bucket segment of `m` records whose keys OR-fold to
    /// `diff` (the planner both the executor and [`predict_traffic`] use).
    fn plan(m: usize, diff: u64) -> SegPlan;
    /// Sorts one bucket segment, leaving the result in `a`.
    fn sort_segment(a: &mut [Self], b: &mut [Self], ws: &mut WorkerScratch) -> SegStats;
}

impl SortRec for Pair {
    const BYTES: u64 = PAIR_BYTES;

    #[inline]
    fn sort_key(self) -> u64 {
        self.key()
    }

    fn split_stage(ws: &mut WorkerScratch) -> (&mut Vec<Self>, &mut Vec<u32>, &mut Vec<u32>) {
        (&mut ws.stage, &mut ws.fill, &mut ws.cursors)
    }

    fn plan(m: usize, diff: u64) -> SegPlan {
        plan_segment(m, diff)
    }

    fn sort_segment(a: &mut [Self], b: &mut [Self], ws: &mut WorkerScratch) -> SegStats {
        let m = a.len();
        debug_assert!(m > 1 && b.len() == m);
        let first = a[0].key();
        let diff = a.iter().fold(0u64, |acc, &p| acc | (p.key() ^ first));
        let plan = Self::plan(m, diff);
        match &plan {
            SegPlan::Constant => {}
            SegPlan::Comparison => a.sort_unstable_by_key(|p| (p.key(), p.id())),
            SegPlan::Lsd { passes, run, .. } => {
                lsd_segment(a, b, &mut ws.table, &passes[..*run]);
            }
            SegPlan::Narrowed {
                win_lo,
                ties,
                passes,
                run,
                ..
            } => narrow_segment(a, b, ws, *win_lo, &passes[..*run], *ties),
        }
        seg_traffic(&plan, m as u64, PAIR_BYTES)
    }
}

impl SortRec for NarrowPair {
    const BYTES: u64 = NARROW_BYTES;

    #[inline]
    fn sort_key(self) -> u64 {
        u64::from(self.key)
    }

    fn split_stage(ws: &mut WorkerScratch) -> (&mut Vec<Self>, &mut Vec<u32>, &mut Vec<u32>) {
        (&mut ws.stage_narrow, &mut ws.fill, &mut ws.cursors)
    }

    /// Already-narrow segments (global narrow path) replan like wide
    /// ones, minus the second narrowing level.
    fn plan(m: usize, diff: u64) -> SegPlan {
        plan_lsd(m, diff)
    }

    /// Equal window values imply equal full keys here — the global fold
    /// fit the window — so the comparison fallback's `(window, id)` order
    /// is the stable key order.
    fn sort_segment(a: &mut [Self], b: &mut [Self], ws: &mut WorkerScratch) -> SegStats {
        let m = a.len();
        debug_assert!(m > 1 && b.len() == m);
        let first = a[0].key;
        let diff = a.iter().fold(0u32, |acc, &p| acc | (p.key ^ first));
        let plan = Self::plan(m, u64::from(diff));
        match &plan {
            SegPlan::Constant => {}
            SegPlan::Comparison => a.sort_unstable_by_key(|p| (p.key, p.id)),
            SegPlan::Lsd { passes, run, .. } => {
                lsd_segment(a, b, &mut ws.table, &passes[..*run]);
            }
            SegPlan::Narrowed { .. } => unreachable!("narrow records never re-narrow"),
        }
        seg_traffic(&plan, m as u64, NARROW_BYTES)
    }
}

/// Scatter fan-out for an `n`-pair batch at a given `threads` knob:
/// capped at the host's physical parallelism because each scatter worker
/// re-scans the full source (see the module docs), and 1 for batches too
/// small to amortize a spawn.
fn scatter_workers(threads: usize, n: usize) -> usize {
    if threads > 1 && n >= PARALLEL_SORT {
        threads.min(par::host_parallelism())
    } else {
        1
    }
}

/// Sorts `pairs` by `(key, id)` in place, leaving the result in `pairs`
/// for every pass count (the ping-pong swaps are O(1) pointer
/// exchanges). `scratch` is the alternate pass buffer and `ss` holds the
/// count/staging tables — both retain capacity across calls; `threads`
/// bounds the per-pass fan-out (it never affects the result), and `diff`
/// optionally carries the batch's precomputed OR-fold of `key ^ first_key`
/// (builders that stream every key anyway compute it for free; `None`
/// recomputes it here).
pub(crate) fn sort_pairs(
    pairs: &mut Vec<Pair>,
    scratch: &mut Vec<Pair>,
    ss: &mut SortScratch,
    threads: usize,
    diff: Option<u64>,
) {
    // Histogram/scatter fan-out beyond physical cores is pure overhead
    // (the extra workers serialize the same scans behind spawn and merge
    // costs), so the in-sort parallelism follows the hardware; the
    // `threads` knob still governs everything downstream.
    let fan = threads.min(par::host_parallelism()).max(1);
    sort_pairs_with(
        pairs,
        scratch,
        ss,
        fan,
        scatter_workers(threads, pairs.len()),
        diff,
    );
}

/// [`sort_pairs`] with the scatter/segment fan-out chosen by the caller —
/// the test seam that exercises the owned-run parallel scatter and the
/// stolen segment sorts on hosts whose physical core count would cap
/// [`sort_pairs`] to a sequential run. The output is identical for every
/// `workers` value.
pub(crate) fn sort_pairs_with(
    pairs: &mut Vec<Pair>,
    scratch: &mut Vec<Pair>,
    ss: &mut SortScratch,
    threads: usize,
    workers: usize,
    diff: Option<u64>,
) {
    let n = pairs.len();
    if n <= 1 {
        return;
    }

    // OR-fold of `key ^ first` finds the bit positions where at least two
    // keys differ — the pass plan's whole input. Callers that already
    // streamed every key pass the fold in; otherwise it costs one scan.
    let first = pairs[0].key();
    let diff = diff.unwrap_or_else(|| fold_diff(pairs, threads));
    debug_assert_eq!(
        diff,
        pairs.iter().fold(0u64, |acc, &p| acc | (p.key() ^ first)),
        "caller-supplied diff mask must equal the batch's OR-fold"
    );
    if diff == 0 {
        // All keys equal: input order is already the stable order.
        return;
    }

    let gplan = plan_global(n, diff);
    if matches!(gplan, GlobalPlan::Comparison) {
        pairs.sort_unstable_by_key(|p| (p.key(), p.id()));
        return;
    }

    let workers = workers.clamp(1, n);
    let hist_workers = if threads > 1 && n >= PARALLEL_SORT {
        threads
    } else {
        1
    };
    if ss.workers.len() < workers.max(hist_workers) {
        ss.workers
            .resize_with(workers.max(hist_workers), WorkerScratch::default);
    }

    let (skipped, local) = match gplan {
        GlobalPlan::Comparison => unreachable!("handled above"),
        GlobalPlan::Wide {
            passes,
            run,
            skipped,
        } => {
            let local = radix_pipeline(pairs, scratch, ss, hist_workers, workers, &passes[..run]);
            (skipped, local)
        }
        GlobalPlan::Narrow {
            lo,
            passes,
            run,
            skipped,
        } => {
            // The whole batch's varying bits fit one 32-bit window:
            // repack up front so even the DRAM-bound global pass moves
            // 8-byte records. Ids ride along unchanged (equal windows
            // imply equal keys, so no tie ranks are needed), and the
            // widen rebuilds each key from the batch's constant bits.
            let mut nv = std::mem::take(&mut ss.narrow);
            let mut nsc = std::mem::take(&mut ss.narrow_scratch);
            {
                let _span = obs::span("sort.narrow");
                let _wall = trace::span("sort.narrow");
                nv.clear();
                nv.extend(pairs.iter().map(|p| NarrowPair {
                    key: (p.key() >> lo) as u32,
                    id: p.id(),
                }));
                prof::record(
                    prof::Phase::SortNarrow,
                    n as u64 * PAIR_BYTES,
                    n as u64 * NARROW_BYTES,
                    n as u64,
                );
            }
            let local =
                radix_pipeline(&mut nv, &mut nsc, ss, hist_workers, workers, &passes[..run]);
            {
                let _span = obs::span("sort.narrow");
                let _wall = trace::span("sort.narrow");
                let const_bits = first & !(0xFFFF_FFFFu64 << lo);
                for (p, np) in pairs.iter_mut().zip(&nv) {
                    *p = Pair::new(const_bits | (u64::from(np.key) << lo), np.id);
                }
                prof::record(
                    prof::Phase::SortNarrow,
                    n as u64 * NARROW_BYTES,
                    n as u64 * PAIR_BYTES,
                    n as u64,
                );
            }
            ss.narrow = nv;
            ss.narrow_scratch = nsc;
            (skipped, local)
        }
    };

    let rec = obs::global();
    rec.add(obs::CounterId::SortPassesRun, 1 + local.run);
    rec.add(obs::CounterId::SortPassesSkipped, skipped + local.skipped);
    rec.add(obs::CounterId::SortNarrowSegments, local.narrow_segs);
    rec.add(obs::CounterId::SortWideSegments, local.wide_segs);
}

/// The whole-batch decision: comparison fallback, wide pipeline, or the
/// globally narrowed pipeline. A pure function of `(n, diff)` shared by
/// [`sort_pairs_with`] and [`predict_traffic`], so the executed charges
/// and the analytic prediction cannot drift.
enum GlobalPlan {
    Comparison,
    Wide {
        passes: [Pass; MAX_PASSES],
        run: usize,
        skipped: u64,
    },
    Narrow {
        lo: u32,
        passes: [Pass; MAX_PASSES],
        run: usize,
        skipped: u64,
    },
}

fn plan_global(n: usize, diff: u64) -> GlobalPlan {
    let (passes, run, skipped) = plan_passes(diff, MAX_DIGIT_BITS);
    if !lsd_is_cheaper(n, &passes[..run]) {
        return GlobalPlan::Comparison;
    }
    let lo = diff.trailing_zeros();
    let hi = 64 - diff.leading_zeros();
    if hi - lo <= 32 {
        // Replanned over the shifted fold so every pass window is
        // window-relative; the digit structure (and so the bucket
        // boundaries) is the wide plan's, shifted.
        let (np, nrun, nsk) = plan_passes(diff >> lo, MAX_DIGIT_BITS);
        return GlobalPlan::Narrow {
            lo,
            passes: np,
            run: nrun,
            skipped: nsk,
        };
    }
    GlobalPlan::Wide {
        passes,
        run,
        skipped,
    }
}

/// The width-generic global pipeline: one MSD counting scatter on the
/// plan's most significant window, then bucket-local LSD passes.
/// Everything downstream of the plan — histogram fan-out, owned-run
/// scatter, segment deal — is identical for both record widths; the
/// analytic charges scale by `R::BYTES`. Returns the local phase's
/// [`SegStats`].
fn radix_pipeline<R: SortRec>(
    pairs: &mut Vec<R>,
    scratch: &mut Vec<R>,
    ss: &mut SortScratch,
    hist_workers: usize,
    workers: usize,
    plan: &[Pass],
) -> SegStats {
    let n = pairs.len();
    if scratch.len() < n {
        scratch.resize(n, R::default());
    } else {
        scratch.truncate(n);
    }
    let run_len = plan.len();
    let top = plan[run_len - 1];
    let buckets = 1usize << top.bits;
    {
        let _span = obs::span("sort.hist");
        let _wall = trace::span("sort.hist");
        histogram_into(pairs, top, hist_workers, ss);
    }
    // Exclusive prefix sum: `starts[b]` is bucket b's first offset.
    ss.starts.clear();
    let mut acc = 0u32;
    ss.starts.extend(ss.counts[..buckets].iter().map(|&c| {
        let s = acc;
        acc += c;
        s
    }));
    debug_assert_eq!(acc as usize, n);
    // Canonical traffic of the global pass, charged analytically (see the
    // prof module docs): the histogram reads every record once; the
    // scatter reads every record and writes all but the trailing
    // partial-line drains, which `sort.flush` moves out of staging. The
    // flush share is a pure function of the histogram (`count mod STAGE`
    // per bucket) — parallel workers split the drains differently between
    // their private staging areas, but the bytes drained in total are
    // fixed by the bucket counts, so the charge is identical for every
    // worker count.
    let flush_pairs: u64 = ss.counts[..buckets]
        .iter()
        .map(|&c| u64::from(c) % STAGE as u64)
        .sum();
    let batch_bytes = n as u64 * R::BYTES;
    prof::record(prof::Phase::SortHist, batch_bytes, 0, n as u64);
    {
        let _span = obs::span("sort.scatter");
        let _wall = trace::span("sort.scatter");
        if workers <= 1 {
            scatter_run(
                pairs,
                scratch,
                &ss.starts,
                top,
                0,
                buckets,
                &mut ss.workers[0],
            );
        } else {
            scatter_parallel(
                pairs,
                scratch,
                &ss.starts,
                top,
                workers,
                &mut ss.cuts,
                &mut ss.workers,
            );
        }
    }
    prof::record(
        prof::Phase::SortScatter,
        batch_bytes,
        batch_bytes - flush_pairs * R::BYTES,
        n as u64,
    );
    prof::record(
        prof::Phase::SortFlush,
        0,
        flush_pairs * R::BYTES,
        flush_pairs,
    );
    // O(1): the partitioned records are now the local phase's source.
    std::mem::swap(pairs, scratch);

    let mut local = SegStats::default();
    if run_len > 1 {
        let _span = obs::span("sort.local");
        let _wall = trace::span("sort.local");
        local = sort_segments(pairs, scratch, &ss.starts, workers, &mut ss.workers);
        prof::record(
            prof::Phase::SortLocal,
            local.read,
            local.written,
            local.items,
        );
    }
    local
}

/// Accumulated bucket-local phase totals: executed/skipped pass counts,
/// the analytic traffic of the executed passes, and the narrow/wide
/// segment split. Plain integer sums over segments, so the totals are
/// identical for any worker count or steal interleaving.
#[derive(Debug, Default, Clone, Copy)]
struct SegStats {
    /// LSD passes executed.
    run: u64,
    /// Passes dropped by segment replans (constant digit windows).
    skipped: u64,
    /// Bytes read: `width · m` for the one fused count scan and per
    /// scatter scan, plus the odd-plan pre-copy (wide) or the fused
    /// repack/emit extras (narrowed; see [`seg_traffic`]).
    read: u64,
    /// Bytes written per scatter, same conventions.
    written: u64,
    /// Pairs in processed segments (including segments that replanned to
    /// nothing or took the comparison fallback — their pairs were the
    /// phase's input even when no counting pass moved them).
    items: u64,
    /// Segments whose local passes ran on 8-byte records.
    narrow_segs: u64,
    /// Segments whose local passes ran wide.
    wide_segs: u64,
}

impl SegStats {
    fn merge(&mut self, other: SegStats) {
        self.run += other.run;
        self.skipped += other.skipped;
        self.read += other.read;
        self.written += other.written;
        self.items += other.items;
        self.narrow_segs += other.narrow_segs;
        self.wide_segs += other.wide_segs;
    }
}

/// One bucket segment's plan: a pure function of `(m, diff fold)` and the
/// record width ([`SortRec::plan`]), shared by the executor
/// ([`SortRec::sort_segment`]) and the predictor ([`predict_traffic`]),
/// so the two derive byte-identical traffic by construction.
enum SegPlan {
    /// All keys equal — the stable global order is already sorted.
    Constant,
    /// Below the cost model's crossover: comparison sort.
    Comparison,
    /// LSD counting passes at the record's own width.
    Lsd {
        passes: [Pass; MAX_PASSES],
        run: usize,
        skipped: u64,
    },
    /// LSD counting passes on 8-byte narrowed records over the 32-bit
    /// key window at `win_lo`; `ties` marks the tie-ranked shape (window
    /// narrower than the segment's varying span).
    Narrowed {
        win_lo: u32,
        ties: bool,
        passes: [Pass; MAX_PASSES],
        run: usize,
        skipped: u64,
    },
}

/// Digit width of a segment replan: it tracks the segment size (table ≈
/// one entry per pair) — an oversized table spends more on zeroing and
/// prefix-summing than its fewer passes save, an undersized one
/// multiplies passes.
fn segment_width(m: usize) -> u32 {
    (usize::BITS - 1 - m.leading_zeros()).clamp(MIN_DIGIT_BITS, MAX_DIGIT_BITS)
}

/// A segment plan at the record's own width: constant, comparison below
/// the cost model's crossover, or LSD passes.
fn plan_lsd(m: usize, diff: u64) -> SegPlan {
    if diff == 0 {
        return SegPlan::Constant;
    }
    let (passes, run, skipped) = plan_passes(diff, segment_width(m));
    if !lsd_is_cheaper(m, &passes[..run]) {
        return SegPlan::Comparison;
    }
    SegPlan::Lsd {
        passes,
        run,
        skipped,
    }
}

/// A wide segment's plan: [`plan_lsd`], then narrowed to 8-byte records
/// whenever a 32-bit window moves fewer bytes than the wide passes.
fn plan_segment(m: usize, diff: u64) -> SegPlan {
    let plan = plan_lsd(m, diff);
    let SegPlan::Lsd { run, .. } = plan else {
        return plan;
    };
    let width = segment_width(m);
    let lo = diff.trailing_zeros();
    let hi = 64 - diff.leading_zeros();
    let span = hi - lo;
    // Closed-form byte totals (per pair; see seg_traffic): the wide plan
    // moves 12m per scan (one fused count scan + r scatter read/write
    // scans + the odd pre-copy), a narrowed one 8m plus the repack/emit
    // extras. The repack fuses into the first scatter and the emit into
    // the last, so narrowing needs ≥ 2 passes. Three window candidates
    // compete on that byte total: the exact window (every varying bit, no
    // tie machinery), the full 32-bit tie window (most varying bits
    // resolved by passes), and a minimal tie window of ~log₂ m + slack
    // bits — just wide enough that same-window collisions stay rare
    // (~m/256 expected), leaving the rest to the fixup scan at a fraction
    // of the passes. Strictly-lower cost switches candidates, so the
    // choice is a pure function of (m, diff).
    let wide_bytes = 24 * run as u64 + 12 + 24 * u64::from(run % 2 == 1);
    let mut best: Option<(u64, u32, bool, [Pass; MAX_PASSES], usize, u64)> = None;
    let mut consider = |win_lo: u32, ties: bool| {
        let (p, r, s) = plan_passes(diff >> win_lo, width);
        if r < 2 {
            return;
        }
        let bytes = 16 * r as u64 + if ties { 56 } else { 20 };
        if bytes < wide_bytes && best.as_ref().is_none_or(|b| bytes < b.0) {
            best = Some((bytes, win_lo, ties, p, r, s));
        }
    };
    if span <= 32 {
        consider(lo, false);
    } else {
        consider(hi - 32, true);
    }
    let w_min = (usize::BITS - 1 - m.leading_zeros() + TIE_WINDOW_SLACK).min(32);
    if w_min < span {
        consider(hi - w_min, true);
    }
    match best {
        Some((_, win_lo, ties, passes, run, skipped)) => SegPlan::Narrowed {
            win_lo,
            ties,
            passes,
            run,
            skipped,
        },
        None => plan,
    }
}

/// The analytic traffic of one planned segment, at `elem` bytes per
/// record. Wide/plain LSD: one fused [`count_all`] scan reads the
/// source once, each pass's scatter reads it again and writes the
/// destination; an odd plan pre-copies the segment. Narrowed LSD: the
/// fused count and the repack scatter each read the wide segment once;
/// middle passes move narrow records; the last pass reads narrow and
/// writes wide — and the tie-ranked shape adds the shadow copy (12m
/// write), the rank gather (12m read), and the fixup scan (12m read).
/// A comparison fallback or constant segment contributes items only —
/// comparison-sort traffic is data-dependent, so the model does not
/// charge it.
fn seg_traffic(plan: &SegPlan, m: u64, elem: u64) -> SegStats {
    let base = SegStats {
        items: m,
        ..SegStats::default()
    };
    match *plan {
        SegPlan::Constant | SegPlan::Comparison => base,
        SegPlan::Lsd { run, skipped, .. } => {
            let (r, odd) = (run as u64, u64::from(run % 2 == 1));
            SegStats {
                run: r,
                skipped,
                read: elem * m * (r + 1 + odd),
                written: elem * m * (r + odd),
                narrow_segs: u64::from(elem == NARROW_BYTES),
                wide_segs: u64::from(elem != NARROW_BYTES),
                ..base
            }
        }
        SegPlan::Narrowed {
            ties, run, skipped, ..
        } => {
            let r = run as u64;
            let (extra_r, extra_w) = if ties { (40, 16) } else { (16, 4) };
            SegStats {
                run: r,
                skipped,
                read: m * (8 * r + extra_r),
                written: m * (8 * r + extra_w),
                narrow_segs: 1,
                ..base
            }
        }
    }
}

/// OR-fold of `key ^ pairs[0].key()` over the batch, chunk-parallel for
/// large inputs (chunk boundaries never change an OR).
fn fold_diff(pairs: &[Pair], threads: usize) -> u64 {
    let n = pairs.len();
    let first = pairs[0].key();
    if threads > 1 && n >= PARALLEL_SORT {
        par::map_chunks(threads, n, |range| {
            pairs[range]
                .iter()
                .fold(0u64, |acc, &p| acc | (p.key() ^ first))
        })
        .into_iter()
        .fold(0, |acc, d| acc | d)
    } else {
        pairs.iter().fold(0u64, |acc, &p| acc | (p.key() ^ first))
    }
}

/// Four-lane digit count of `src` under `pass` into `table` (resized and
/// truncated to the bucket count). One key per lane per iteration, each
/// lane its own table slice, column-summed at close: the same integer
/// totals as a single-table scan — so the scatter destinations are
/// unchanged — without the store-to-load stall every time consecutive
/// keys share a bucket. Scans shorter than 4 × buckets keep a single
/// table: on a tiny cache-resident segment, zeroing and folding three
/// extra lane tables costs more than the stalls it removes, and the
/// totals are the same integer sums either way.
fn count4<T: Copy>(src: &[T], table: &mut Vec<u32>, pass: Pass, key: impl Fn(T) -> u64) {
    let buckets = 1usize << pass.bits;
    table.clear();
    if src.len() < 4 * buckets {
        table.resize(buckets, 0);
        for &p in src {
            table[pdigit(key(p), pass)] += 1;
        }
        return;
    }
    table.resize(4 * buckets, 0);
    let mut groups = src.chunks_exact(4);
    for g in groups.by_ref() {
        table[pdigit(key(g[0]), pass)] += 1;
        table[buckets + pdigit(key(g[1]), pass)] += 1;
        table[2 * buckets + pdigit(key(g[2]), pass)] += 1;
        table[3 * buckets + pdigit(key(g[3]), pass)] += 1;
    }
    for &p in groups.remainder() {
        table[pdigit(key(p), pass)] += 1;
    }
    let (sum, lanes) = table.split_at_mut(buckets);
    for (b, s) in sum.iter_mut().enumerate() {
        *s += lanes[b] + lanes[b + buckets] + lanes[b + 2 * buckets];
    }
    table.truncate(buckets);
}

/// One scan of `src` filling **every** pass's digit histogram at once:
/// pass `k`'s `1 << bits` buckets live at the flat offset
/// `Σ_{j<k} (1 << plan[j].bits)` in `tables`. A digit count is an
/// order-independent integer sum over the segment's multiset of keys —
/// which no scatter pass changes — so each per-pass table equals the
/// one a dedicated scan just before that pass would produce, at one
/// source read instead of one per pass.
fn count_all<T: Copy>(src: &[T], tables: &mut Vec<u32>, plan: &[Pass], key: impl Fn(T) -> u64) {
    let total: usize = plan.iter().map(|p| 1usize << p.bits).sum();
    tables.clear();
    tables.resize(total, 0);
    for &p in src {
        let k = key(p);
        let mut off = 0usize;
        for &pass in plan {
            tables[off + pdigit(k, pass)] += 1;
            off += 1 << pass.bits;
        }
    }
}

/// In-place exclusive prefix sum; returns the total.
fn exclusive_prefix(table: &mut [u32]) -> u32 {
    let mut acc = 0u32;
    for c in table.iter_mut() {
        let v = *c;
        *c = acc;
        acc += v;
    }
    acc
}

/// Histograms `src` under `pass` into `ss.counts`, fanning disjoint index
/// chunks out over `workers` (each fills its own lane tables; the tables
/// column-sum at the end, so the result is a plain integer sum —
/// identical for every worker count).
fn histogram_into<R: SortRec>(src: &[R], pass: Pass, workers: usize, ss: &mut SortScratch) {
    let n = src.len();
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 {
        count4(src, &mut ss.workers[0].table, pass, R::sort_key);
        merge_tables(ss, 1);
        return;
    }
    let chunk = n.div_ceil(workers);
    std::thread::scope(|scope| {
        for (w, ws) in ss.workers[..workers].iter_mut().enumerate() {
            let table = &mut ws.table;
            let src = &src[(w * chunk).min(n)..((w + 1) * chunk).min(n)];
            scope.spawn(move || count4(src, table, pass, R::sort_key));
        }
    });
    merge_tables(ss, workers);
}

/// Promotes the per-worker chunk histograms to the global pass's bucket
/// counts: worker 0's table swaps into `ss.counts` (O(1)) and the rest
/// column-sum in. At ≤ 2048 buckets the sum is a few microseconds even at
/// the widest fan-out — far below the cost of striping it.
fn merge_tables(ss: &mut SortScratch, workers: usize) {
    let (first, rest) = ss.workers.split_first_mut().expect("worker tables exist");
    std::mem::swap(&mut ss.counts, &mut first.table);
    for ws in &rest[..workers - 1] {
        for (total, &c) in ss.counts.iter_mut().zip(&ws.table) {
            *total += c;
        }
    }
}

/// Stable parallel scatter by bucket ownership: buckets are cut into
/// `workers` contiguous runs of near-equal record mass (from the
/// histogram), the output splits into the matching disjoint regions, and
/// each worker scans the full source writing only its run's records
/// through its own write-combining staging. Within a bucket, writes
/// happen in source order, so the result equals the sequential staged
/// scatter exactly, for any worker count.
fn scatter_parallel<R: SortRec>(
    src: &[R],
    dst: &mut [R],
    starts: &[u32],
    pass: Pass,
    workers: usize,
    cuts: &mut Vec<usize>,
    pool: &mut [WorkerScratch],
) {
    let n = src.len();
    let buckets = starts.len();
    let bound = |b: usize| -> u32 {
        if b < buckets {
            starts[b]
        } else {
            n as u32
        }
    };
    // Run r covers buckets `cuts[r]..cuts[r + 1]`; each cut lands on the
    // first bucket at or past the r-th equal slice of the record count,
    // so runs are contiguous in bucket (= digit) order and balanced by
    // the histogram, not by bucket count.
    cuts.clear();
    cuts.push(0);
    for r in 1..workers {
        let target = ((n as u64 * r as u64) / workers as u64) as u32;
        let cut = starts.partition_point(|&s| s < target).max(cuts[r - 1]);
        cuts.push(cut);
    }
    cuts.push(buckets);

    std::thread::scope(|scope| {
        let mut rest: &mut [R] = dst;
        for (w, ws) in pool[..workers].iter_mut().enumerate() {
            let (lo_b, hi_b) = (cuts[w], cuts[w + 1]);
            let taken = std::mem::take(&mut rest);
            let (region, tail) = taken.split_at_mut((bound(hi_b) - bound(lo_b)) as usize);
            rest = tail;
            scope.spawn(move || {
                scatter_run(src, region, starts, pass, lo_b, hi_b, ws);
            });
        }
        debug_assert!(rest.is_empty());
    });
}

/// One worker's stable scatter of bucket run `[lo_b, hi_b)` into
/// `region` (that run's disjoint slice of the destination), staged
/// through [`STAGE`]-slot write-combining buffers. The trailing
/// partial-bucket drain is the `sort.flush` span.
fn scatter_run<R: SortRec>(
    src: &[R],
    region: &mut [R],
    starts: &[u32],
    pass: Pass,
    lo_b: usize,
    hi_b: usize,
    ws: &mut WorkerScratch,
) {
    let (stage, fill, cursors) = R::split_stage(ws);
    let run = hi_b - lo_b;
    let base = if run > 0 { starts[lo_b] } else { 0 };
    cursors.clear();
    cursors.extend(starts[lo_b..hi_b].iter().map(|&s| s - base));
    fill.clear();
    fill.resize(run, 0);
    if stage.len() < run * STAGE {
        stage.resize(run * STAGE, R::default());
    }

    for &p in src {
        let d = pdigit(p.sort_key(), pass);
        if !(lo_b..hi_b).contains(&d) {
            continue;
        }
        let s = d - lo_b;
        let f = fill[s] as usize;
        stage[s * STAGE + f] = p;
        if f + 1 == STAGE {
            let c = cursors[s] as usize;
            region[c..c + STAGE].copy_from_slice(&stage[s * STAGE..s * STAGE + STAGE]);
            cursors[s] = (c + STAGE) as u32;
            fill[s] = 0;
        } else {
            fill[s] = (f + 1) as u32;
        }
    }

    // Drain the partial buckets: destinations are disjoint, so the drain
    // order is irrelevant to the result.
    let _span = obs::span("sort.flush");
    let _wall = trace::span("sort.flush");
    for s in 0..run {
        let f = fill[s] as usize;
        if f > 0 {
            let c = cursors[s] as usize;
            region[c..c + f].copy_from_slice(&stage[s * STAGE..s * STAGE + f]);
            cursors[s] = (c + f) as u32;
        }
    }
}

/// Finishes every bucket of the partitioned batch with bucket-local LSD
/// passes ([`SortRec::sort_segment`]), sequentially or over a
/// [`par::StealQueue`] of disjoint `(pairs, scratch)` segment slices
/// dealt round-robin. Returns the summed [`SegStats`] — plain integer
/// sums, so identical for any worker count or steal interleaving.
fn sort_segments<R: SortRec>(
    pairs: &mut [R],
    scratch: &mut [R],
    starts: &[u32],
    workers: usize,
    pool: &mut [WorkerScratch],
) -> SegStats {
    let n = pairs.len();
    let buckets = starts.len();
    let bound = |b: usize| -> usize {
        if b < buckets {
            starts[b] as usize
        } else {
            n
        }
    };
    if workers <= 1 {
        let ws = &mut pool[0];
        let mut stats = SegStats::default();
        for b in 0..buckets {
            let (lo, hi) = (bound(b), bound(b + 1));
            if hi - lo > 1 {
                stats.merge(R::sort_segment(
                    &mut pairs[lo..hi],
                    &mut scratch[lo..hi],
                    ws,
                ));
            }
        }
        return stats;
    }

    // Deal the non-trivial segments round-robin; stealing rebalances the
    // inevitable heavy buckets. Each queue item carries the segment's
    // disjoint slices of both buffers, so no worker ever touches another
    // worker's indices.
    let mut queue = par::StealQueue::new(workers);
    {
        let (mut rest_a, mut rest_b) = (pairs, scratch);
        let mut dealt = 0usize;
        for b in 0..buckets {
            let m = bound(b + 1) - bound(b);
            let (seg_a, tail_a) = std::mem::take(&mut rest_a).split_at_mut(m);
            let (seg_b, tail_b) = std::mem::take(&mut rest_b).split_at_mut(m);
            (rest_a, rest_b) = (tail_a, tail_b);
            if m > 1 {
                queue.push(dealt % workers, (seg_a, seg_b));
                dealt += 1;
            }
        }
    }
    let queue = &queue;
    // One atomic per SegStats field, merged from per-worker local sums —
    // commutative integer adds, so the totals ignore steal interleaving.
    let totals: [std::sync::atomic::AtomicU64; 7] = Default::default();
    std::thread::scope(|scope| {
        for (w, ws) in pool[..workers].iter_mut().enumerate() {
            let totals = &totals;
            scope.spawn(move || {
                let mut acc = SegStats::default();
                while let Some((seg_a, seg_b)) = queue.pop(w) {
                    acc.merge(R::sort_segment(seg_a, seg_b, ws));
                }
                let order = std::sync::atomic::Ordering::Relaxed;
                totals[0].fetch_add(acc.run, order);
                totals[1].fetch_add(acc.skipped, order);
                totals[2].fetch_add(acc.read, order);
                totals[3].fetch_add(acc.written, order);
                totals[4].fetch_add(acc.items, order);
                totals[5].fetch_add(acc.narrow_segs, order);
                totals[6].fetch_add(acc.wide_segs, order);
            });
        }
    });
    let order = std::sync::atomic::Ordering::Relaxed;
    SegStats {
        run: totals[0].load(order),
        skipped: totals[1].load(order),
        read: totals[2].load(order),
        written: totals[3].load(order),
        items: totals[4].load(order),
        narrow_segs: totals[5].load(order),
        wide_segs: totals[6].load(order),
    }
}

/// The plain LSD ping-pong at the record's own width: one [`count_all`]
/// scan fills every pass's table, then the replanned passes alternate
/// `a ↔ b`, pre-copying once when the pass count is odd so the sorted
/// result lands back in `a`.
fn lsd_segment<R: SortRec>(a: &mut [R], b: &mut [R], table: &mut Vec<u32>, plan: &[Pass]) {
    let run = plan.len();
    count_all(a, table, plan, R::sort_key);
    if run % 2 == 1 {
        b.copy_from_slice(a);
    }
    let mut in_b = run % 2 == 1;
    let mut off = 0usize;
    for &pass in plan {
        let buckets = 1usize << pass.bits;
        let t = &mut table[off..off + buckets];
        exclusive_prefix(t);
        let (src, dst): (&mut [R], &mut [R]) = if in_b { (b, a) } else { (a, b) };
        scatter_local(src, dst, t, pass);
        in_b = !in_b;
        off += buckets;
    }
    debug_assert!(!in_b, "ping-pong must end with the sorted segment in `a`");
}

/// One cache-resident counting scatter with the [`LOOKAHEAD`] source
/// touch (see the module docs): a `black_box` load per 4-record group
/// keeps the next source lines streaming in ahead of the
/// random-destination writes, without changing a single destination.
fn scatter_local<R: SortRec>(src: &[R], dst: &mut [R], table: &mut [u32], pass: Pass) {
    let len = src.len();
    let mut i = 0usize;
    while i < len {
        if let Some(&ahead) = src.get(i + LOOKAHEAD) {
            std::hint::black_box(ahead);
        }
        let end = (i + 4).min(len);
        while i < end {
            let p = src[i];
            let d = pdigit(p.sort_key(), pass);
            dst[table[d] as usize] = p;
            table[d] += 1;
            i += 1;
        }
    }
}

/// The narrowed segment pipeline (see the module docs): one
/// [`count_all`] scan of the wide segment fills every pass's table,
/// then a fused repack first pass (wide in, narrow out; the tie-ranked
/// shape also streams the shadow copy into `b`), narrow ping-pong
/// middle passes in the worker's private buffers, and a fused emit last
/// pass (narrow in, wide out — reconstructed from the segment's
/// constant bits when exact, gathered from the shadow copy by rank when
/// tie-ranked), plus the tie-run fixup scan. Requires ≥ 2 planned
/// passes.
fn narrow_segment(
    a: &mut [Pair],
    b: &mut [Pair],
    ws: &mut WorkerScratch,
    win_lo: u32,
    plan: &[Pass],
    ties: bool,
) {
    let m = a.len();
    let run = plan.len();
    debug_assert!(run >= 2 && b.len() == m);
    let first = a[0].key();
    let WorkerScratch { table, na, nb, .. } = ws;
    if na.len() < m {
        na.resize(m, NarrowPair::default());
    }
    let na = &mut na[..m];
    let nb: &mut [NarrowPair] = if run > 2 {
        if nb.len() < m {
            nb.resize(m, NarrowPair::default());
        }
        &mut nb[..m]
    } else {
        // No middle passes: the first pass writes `na`, the last reads it.
        &mut []
    };

    // One scan fills every pass's digit table (the pass windows all sit
    // below bit 32 of the shifted key, so counting the full shift equals
    // counting the truncated `u32` window).
    count_all(a, table, plan, |p: Pair| p.key() >> win_lo);
    let mut off = 0usize;

    // First pass: scatter wide records into narrow ones. Tie-ranked
    // segments also stream the shadow copy (fused here so it costs no
    // extra scan of `a`).
    let p0 = plan[0];
    exclusive_prefix(&mut table[off..off + (1usize << p0.bits)]);
    {
        let mut i = 0usize;
        while i < m {
            if let Some(&ahead) = a.get(i + LOOKAHEAD) {
                std::hint::black_box(ahead);
            }
            let end = (i + 4).min(m);
            while i < end {
                let p = a[i];
                let nk = (p.key() >> win_lo) as u32;
                let d = off + pdigit(u64::from(nk), p0);
                let payload = if ties { i as u32 } else { p.id() };
                na[table[d] as usize] = NarrowPair {
                    key: nk,
                    id: payload,
                };
                table[d] += 1;
                if ties {
                    b[i] = p;
                }
                i += 1;
            }
        }
    }
    off += 1usize << p0.bits;

    // Middle passes: plain narrow ping-pong.
    let mut in_na = true;
    for &pass in &plan[1..run - 1] {
        let buckets = 1usize << pass.bits;
        let t = &mut table[off..off + buckets];
        exclusive_prefix(t);
        let (src, dst): (&mut [NarrowPair], &mut [NarrowPair]) =
            if in_na { (na, nb) } else { (nb, na) };
        scatter_local(src, dst, t, pass);
        in_na = !in_na;
        off += buckets;
    }

    // Last pass: emit wide straight into `a` — which no narrow buffer
    // aliases, and whose pre-pass contents survive in `b` when the
    // gather needs them.
    let pf = plan[run - 1];
    let src: &mut [NarrowPair] = if in_na { na } else { nb };
    exclusive_prefix(&mut table[off..off + (1usize << pf.bits)]);
    let const_bits = first & !(0xFFFF_FFFFu64 << win_lo);
    {
        let len = src.len();
        let mut i = 0usize;
        while i < len {
            if let Some(&ahead) = src.get(i + LOOKAHEAD) {
                std::hint::black_box(ahead);
            }
            let end = (i + 4).min(len);
            while i < end {
                let np = src[i];
                let d = off + pdigit(u64::from(np.key), pf);
                let pos = table[d] as usize;
                table[d] += 1;
                a[pos] = if ties {
                    b[np.id as usize]
                } else {
                    Pair::new(const_bits | (u64::from(np.key) << win_lo), np.id)
                };
                i += 1;
            }
        }
    }

    // Tie-run fixup: records equal in the window sit in input (= rank)
    // order but may differ below it; one scan re-sorts each run by
    // `(key, id)` — the stable key order, since ids rise in input order.
    if ties {
        let mut i = 0usize;
        while i < m {
            let w = (a[i].key() >> win_lo) as u32;
            let mut j = i + 1;
            while j < m && (a[j].key() >> win_lo) as u32 == w {
                j += 1;
            }
            if j - i > 1 {
                a[i..j].sort_unstable_by_key(|p| (p.key(), p.id()));
            }
            i = j;
        }
    }
}

/// Predicts the analytic traffic [`sort_pairs`] will charge to
/// [`crate::prof`] for `keys`, **without sorting**: the planner's decisions (pass plan, adaptive
/// cutover, global and per-segment narrowing, per-segment replans) are
/// re-derived from the key stream alone, through the same
/// [`plan_global`]/[`plan_segment`]/[`seg_traffic`] functions the
/// executor uses. Segment diffs fold directly off the input — a diff
/// fold is base-independent over its key set and a segment's membership
/// is a pure function of the top digit — so the prediction never needs
/// the scattered order. The differential seam for
/// `tests/prof_traffic.rs`: the recorded charges come from the executed
/// pipeline, this prediction from the formulas, and the two must agree
/// on arbitrary inputs.
pub(crate) fn predict_traffic(keys: &[u64]) -> [(prof::Phase, prof::Traffic); 5] {
    use prof::{Phase, Traffic};
    let mut out = [
        (Phase::SortHist, Traffic::default()),
        (Phase::SortScatter, Traffic::default()),
        (Phase::SortFlush, Traffic::default()),
        (Phase::SortLocal, Traffic::default()),
        (Phase::SortNarrow, Traffic::default()),
    ];
    let n = keys.len();
    if n <= 1 {
        return out;
    }
    let first = keys[0];
    let diff = keys.iter().fold(0u64, |acc, &k| acc | (k ^ first));
    if diff == 0 {
        return out;
    }
    match plan_global(n, diff) {
        GlobalPlan::Comparison => {}
        GlobalPlan::Wide { passes, run, .. } => {
            predict_pipeline::<Pair>(keys, |k| k, &passes[..run], &mut out);
        }
        GlobalPlan::Narrow {
            lo, passes, run, ..
        } => {
            // Repack (12 in, 8 out) plus widen (8 in, 12 out), each one
            // scan of the batch.
            let nb = n as u64;
            out[4].1 = Traffic {
                bytes_read: nb * (PAIR_BYTES + NARROW_BYTES),
                bytes_written: nb * (NARROW_BYTES + PAIR_BYTES),
                items: 2 * nb,
            };
            predict_pipeline::<NarrowPair>(
                keys,
                move |k| u64::from((k >> lo) as u32),
                &passes[..run],
                &mut out,
            );
        }
    }
    out
}

/// Shared body of [`predict_traffic`]: charges the global pass and the
/// per-segment replans of record type `R` over the mapped key stream
/// (identity for the wide pipeline, the shifted 32-bit window for the
/// globally narrowed one).
fn predict_pipeline<R: SortRec>(
    keys: &[u64],
    map: impl Fn(u64) -> u64,
    plan: &[Pass],
    out: &mut [(prof::Phase, prof::Traffic); 5],
) {
    use prof::Traffic;
    let elem = R::BYTES;
    let n = keys.len();
    let run_len = plan.len();
    let top = plan[run_len - 1];
    let buckets = 1usize << top.bits;
    let mut counts = vec![0u64; buckets];
    let mut bases = vec![0u64; buckets];
    let mut seg_diffs = vec![0u64; buckets];
    for &k in keys {
        let k = map(k);
        let d = pdigit(k, top);
        if counts[d] == 0 {
            bases[d] = k;
        } else {
            seg_diffs[d] |= k ^ bases[d];
        }
        counts[d] += 1;
    }
    let batch_bytes = n as u64 * elem;
    let flush_pairs: u64 = counts.iter().map(|&c| c % STAGE as u64).sum();
    out[0].1 = Traffic {
        bytes_read: batch_bytes,
        bytes_written: 0,
        items: n as u64,
    };
    out[1].1 = Traffic {
        bytes_read: batch_bytes,
        bytes_written: batch_bytes - flush_pairs * elem,
        items: n as u64,
    };
    out[2].1 = Traffic {
        bytes_read: 0,
        bytes_written: flush_pairs * elem,
        items: flush_pairs,
    };
    if run_len > 1 {
        let mut local = SegStats::default();
        for (&c, &sd) in counts.iter().zip(&seg_diffs) {
            let m = c as usize;
            if m <= 1 {
                continue;
            }
            local.merge(seg_traffic(&R::plan(m, sd), c, elem));
        }
        out[3].1 = Traffic {
            bytes_read: local.read,
            bytes_written: local.written,
            items: local.items,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn reference_sort(pairs: &[Pair]) -> Vec<Pair> {
        let mut v = pairs.to_vec();
        v.sort_by_key(|p| p.key()); // stable: ties keep input order
        v
    }

    fn sorted(input: &[Pair], threads: usize) -> Vec<Pair> {
        let mut pairs = input.to_vec();
        let mut scratch = Vec::new();
        let mut ss = SortScratch::default();
        sort_pairs(&mut pairs, &mut scratch, &mut ss, threads, None);
        pairs
    }

    /// [`sort_pairs_with`] at an explicit scatter/segment fan-out.
    fn sorted_with(input: &[Pair], threads: usize, workers: usize) -> Vec<Pair> {
        let mut pairs = input.to_vec();
        let (mut scratch, mut ss) = (Vec::new(), SortScratch::default());
        sort_pairs_with(&mut pairs, &mut scratch, &mut ss, threads, workers, None);
        pairs
    }

    fn pseudo_random_pairs(n: usize, key_mask: u64, seed: u64) -> Vec<Pair> {
        // splitmix64 stream; masking concentrates keys to force duplicates.
        let mut state = seed;
        (0..n)
            .map(|i| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                Pair::new((z ^ (z >> 31)) & key_mask, i as u32)
            })
            .collect()
    }

    #[test]
    fn pair_packs_to_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Pair>(), 12);
        assert_eq!(std::mem::align_of::<Pair>(), 4);
        let p = Pair::new(u64::MAX - 5, 77);
        assert_eq!(p.key(), u64::MAX - 5);
        assert_eq!(p.id(), 77);
    }

    #[test]
    fn narrow_pair_packs_to_eight_bytes() {
        assert_eq!(std::mem::size_of::<NarrowPair>(), 8);
        assert_eq!(std::mem::align_of::<NarrowPair>(), 4);
        // STAGE narrow slots are exactly one cache line.
        assert_eq!(STAGE * std::mem::size_of::<NarrowPair>(), 64);
    }

    #[test]
    fn matches_stable_reference_across_sizes_and_threads() {
        for &n in &[0usize, 1, 2, 100, 2_047, 2_048, 40_000] {
            for &mask in &[
                u64::MAX,
                0x3FFF_FFFF_FFFF_FFFF,
                0x7FFF_FFFF_8000_0000, // 32-bit window at hi=63: segment ties
                0xFF00,
                0xFF,
            ] {
                let input = pseudo_random_pairs(n, mask, 42 + n as u64);
                let expected = reference_sort(&input);
                for threads in [1, 2, 4, 7] {
                    assert_eq!(
                        sorted(&input, threads),
                        expected,
                        "n={n} mask={mask:#x} threads={threads}"
                    );
                }
            }
        }
    }

    /// Every plan the cost model can choose is reachable from the pure
    /// planners on plain inputs — no override forces any of them — so
    /// the executor tests below can target each path by shaping keys.
    #[test]
    fn planner_reaches_every_plan_without_an_override() {
        // Global: a tiny batch compares, a full-span batch runs the wide
        // pipeline, a fold that fits 32 bits narrows up front (at its
        // trailing zeros, here straddling the u32 boundary).
        assert!(matches!(plan_global(100, u64::MAX), GlobalPlan::Comparison));
        assert!(matches!(
            plan_global(40_000, u64::MAX),
            GlobalPlan::Wide { .. }
        ));
        match plan_global(40_000, 0xFF_FFF0_0000) {
            GlobalPlan::Narrow { lo, .. } => assert_eq!(lo, 20),
            _ => panic!("a 20-bit fold must narrow globally"),
        }

        let m = 40_000;
        assert!(matches!(plan_segment(m, 0), SegPlan::Constant));
        // Below the crossover a segment can't amortize its digit tables.
        assert!(matches!(plan_segment(15, u64::MAX), SegPlan::Comparison));
        // A single-pass plan cannot fuse repack and emit: stays wide.
        assert!(matches!(plan_segment(64, 0xF0), SegPlan::Lsd { .. }));
        // A sparse bit-63 mask that plans only two wide passes stays
        // wide: the single runnable narrow pass cannot fuse repack and
        // emit, and the tie extras would cost more than they save.
        assert!(matches!(
            plan_segment(m, 0x8000_0000_0000_00FF),
            SegPlan::Lsd { .. }
        ));
        // 20-bit span: exact window at the fold's trailing zeros.
        match plan_segment(m, 0xF_FFFF_0000) {
            SegPlan::Narrowed { win_lo, ties, .. } => {
                assert_eq!(win_lo, 16);
                assert!(!ties);
            }
            _ => panic!("20-bit span must narrow exactly"),
        }
        // Full span: the window covers the top 32 varying bits (the
        // minimal window needs as many passes, so it does not win).
        match plan_segment(m, u64::MAX) {
            SegPlan::Narrowed { win_lo, ties, .. } => {
                assert_eq!(win_lo, 32);
                assert!(ties);
            }
            _ => panic!("full span must narrow with tie ranks"),
        }
        // Bit 63 set with a gap: window is [hi-32, hi) = [32, 64). Four
        // wide passes (digits 0, 2, 3, 5) against two narrow ones — the
        // diet pays even with the tie-rank extras.
        match plan_segment(m, 0x8000_00FF_0000_00FF) {
            SegPlan::Narrowed { win_lo, ties, .. } => {
                assert_eq!(win_lo, 32);
                assert!(ties);
            }
            _ => panic!("bit-63 span must narrow with tie ranks"),
        }
        // A 48-bit span over 3,840 records: the minimal window of
        // log₂ m + slack = 19 bits needs one pass fewer than the full
        // 32-bit one, so it wins.
        match plan_segment(3_840, 0xFFFF_FFFF_FFFF) {
            SegPlan::Narrowed { win_lo, ties, .. } => {
                assert_eq!(win_lo, 48 - 19);
                assert!(ties);
            }
            _ => panic!("48-bit span must take the minimal tie window"),
        }
        // Records that are already narrow never re-narrow.
        assert!(matches!(
            NarrowPair::plan(m, 0xFFFF_FFFF),
            SegPlan::Lsd { .. }
        ));
    }

    #[test]
    fn shared_high_bits_do_not_waste_the_digit_window() {
        // Every key carries the same high prefix; only low bits differ, so
        // the pass plan must cover exactly the differing range.
        let input: Vec<Pair> = pseudo_random_pairs(30_000, 0x3FFFF, 3)
            .into_iter()
            .map(|p| Pair::new(p.key() | 0xABCD_0000_0000_0000, p.id()))
            .collect();
        let expected = reference_sort(&input);
        for threads in [1, 4] {
            assert_eq!(sorted(&input, threads), expected, "threads={threads}");
        }
    }

    #[test]
    fn pass_plan_skips_constant_digit_windows() {
        // diff varies only in bits 0..4 and 40..44: the 44-bit span splits
        // into four 11-bit windows, and the middle two are all-zero.
        let diff = 0xF | (0xF << 40);
        let (passes, run, skipped) = plan_passes(diff, MAX_DIGIT_BITS);
        assert_eq!(run, 2);
        assert_eq!(skipped, 2);
        for p in &passes[..run] {
            assert_ne!((diff >> p.shift) & ((1u64 << p.bits) - 1), 0, "{p:?}");
        }
        // A full-width diff skips nothing and tiles [0, 64).
        let (passes, run, skipped) = plan_passes(u64::MAX, MAX_DIGIT_BITS);
        assert_eq!(skipped, 0);
        let covered: u32 = passes[..run].iter().map(|p| p.bits).sum();
        assert_eq!(covered, 64);
        assert!(passes[..run].iter().all(|p| p.bits <= MAX_DIGIT_BITS));
    }

    #[test]
    fn sparse_diff_sorts_identically_and_skips_passes() {
        // Keys vary only in two narrow islands of bits — the shape the
        // pass-skip rule exists for.
        let input: Vec<Pair> = pseudo_random_pairs(20_000, u64::MAX, 9)
            .into_iter()
            .map(|p| {
                Pair::new(
                    p.key() & (0xF | (0xF << 40)) | 0x5000_0000_0000_0000,
                    p.id(),
                )
            })
            .collect();
        let expected = reference_sort(&input);
        for threads in [1, 4] {
            assert_eq!(sorted(&input, threads), expected, "threads={threads}");
        }
    }

    #[test]
    fn scratch_capacity_is_reused() {
        let mut ss = SortScratch::default();
        let mut scratch = Vec::new();
        let mut pairs = pseudo_random_pairs(30_000, u64::MAX, 1);
        sort_pairs(&mut pairs, &mut scratch, &mut ss, 2, None);
        assert!(scratch.capacity() >= 30_000);
        // The global-pass swap trades the two buffers, so measure the
        // pair: a second, smaller sort must keep serving from the two
        // existing allocations rather than growing either one.
        let total = pairs.capacity() + scratch.capacity();
        pairs.clear();
        pairs.extend(pseudo_random_pairs(20_000, u64::MAX, 2));
        sort_pairs(&mut pairs, &mut scratch, &mut ss, 2, None);
        assert_eq!(
            pairs.capacity() + scratch.capacity(),
            total,
            "second sort must not reallocate"
        );
    }

    /// The owned-run parallel scatter and the stolen segment sorts must
    /// be byte-identical to the sequential pipeline for every worker
    /// count — including more workers than occupied buckets.
    /// `sort_pairs_with` is the seam: the public `sort_pairs` caps the
    /// fan-out at physical cores, which on a 1-core CI host would never
    /// exercise the parallel path.
    #[test]
    fn parallel_scatter_matches_sequential_for_any_worker_count() {
        for &(n, mask) in &[
            (40_000usize, u64::MAX),
            (40_000, 0x3FFFF),
            // 3 occupied buckets — fewer buckets than workers.
            (PARALLEL_SORT, 0x3_0000_0000_0000u64),
        ] {
            let input = pseudo_random_pairs(n, mask, 7 + n as u64);
            let seq = sorted_with(&input, 1, 1);
            assert_eq!(seq, reference_sort(&input), "sequential n={n}");
            for workers in [2usize, 3, 4, 8] {
                assert_eq!(
                    sorted_with(&input, 4, workers),
                    seq,
                    "n={n} mask={mask:#x} workers={workers}"
                );
            }
        }
    }

    /// One giant bucket plus a fringe of tiny ones: the owned-run cuts
    /// collapse around the heavy bucket, its segment sort dominates one
    /// steal-queue stripe, and the output must still be exact for every
    /// fan-out (the imbalance shape the mass-balanced cuts and the steal
    /// queue exist for).
    #[test]
    fn forced_imbalance_sorts_identically_across_workers() {
        // ~90% of keys share one top digit; the rest spread out.
        let input: Vec<Pair> = pseudo_random_pairs(30_000, u64::MAX, 11)
            .into_iter()
            .map(|p| {
                if p.id() % 10 != 0 {
                    Pair::new((p.key() & 0xFFFF_FFFF) | 0x7777_0000_0000, p.id())
                } else {
                    p
                }
            })
            .collect();
        let expected = reference_sort(&input);
        for threads in [2, 4, 8] {
            assert_eq!(sorted(&input, threads), expected, "threads={threads}");
        }
        for workers in [2, 5, 8] {
            assert_eq!(
                sorted_with(&input, 4, workers),
                expected,
                "workers={workers}"
            );
        }
    }

    /// Records per adversarial batch: large enough that every shape
    /// below clears the cost model's crossover on its targeted path.
    const ADV_N: usize = 4_096;

    /// The adversarial key shapes, each aimed at one planner path.
    const SHAPES: [&str; 5] = [
        "sparse_bit63",
        "straddle_u32",
        "giant_bucket",
        "fits_u32",
        "all_duplicate",
    ];

    fn shaped(shape: &str, seed: u64) -> Vec<Pair> {
        pseudo_random_pairs(ADV_N, u64::MAX, seed)
            .into_iter()
            .map(|p| {
                let (i, r) = (u64::from(p.id()), p.key());
                let key = match shape {
                    // Bit 63 splits the batch in two; each half varies
                    // only in its low byte.
                    "sparse_bit63" => (i % 2) << 63 | (r & 0xFF),
                    // Bit 63 again, over a 20-bit span across bit 32.
                    "straddle_u32" => (i % 2) << 63 | (r & 0xFF_FFF0_0000),
                    // Every 16th key owns a top digit of its own; the
                    // rest share digit 0x7FF over a 48-bit tail.
                    "giant_bucket" => {
                        (if i % 16 == 0 { i / 16 } else { 0x7FF }) << 53 | (r & 0xFFFF_FFFF_FFFF)
                    }
                    "fits_u32" => r & 0xFFFF_FFFF,
                    "all_duplicate" => seed,
                    other => unreachable!("unknown shape {other}"),
                };
                Pair::new(key, p.id())
            })
            .collect()
    }

    /// Asserts, from the predictor alone, that `shape` takes its target
    /// path: the closed-form traffic of that path (see [`seg_traffic`]).
    fn assert_target_path(shape: &str, keys: &[u64]) {
        use prof::Traffic;
        let t = |bytes_read: u64, bytes_written: u64, items: u64| Traffic {
            bytes_read,
            bytes_written,
            items,
        };
        let p = predict_traffic(keys);
        let (hist, local, narrow) = (p[0].1, p[3].1, p[4].1);
        let n = keys.len() as u64;
        match shape {
            // Global wide pass; both 2,048-record halves replan to one
            // wide LSD pass (SegPlan::Lsd, r = 1, odd pre-copy).
            "sparse_bit63" => {
                assert_eq!(hist.bytes_read, n * PAIR_BYTES, "{shape}");
                assert_eq!(narrow, Traffic::default(), "{shape}");
                assert_eq!(local, t(36 * n, 24 * n, n), "{shape}");
            }
            // Global wide pass; both halves narrow to the exact window
            // (SegPlan::Narrowed { ties: false }, r = 2).
            "straddle_u32" => {
                assert_eq!(narrow, Traffic::default(), "{shape}");
                assert_eq!(local, t(32 * n, 20 * n, n), "{shape}");
            }
            // The fringe keys are singleton buckets; the giant segment
            // takes the minimal tie window (SegPlan::Narrowed
            // { ties: true }, r = 2).
            "giant_bucket" => {
                let m = n - n / 16;
                assert_eq!(narrow, Traffic::default(), "{shape}");
                assert_eq!(local, t(56 * m, 32 * m, m), "{shape}");
            }
            // GlobalPlan::Narrow: 8-byte global pass plus repack/widen.
            "fits_u32" => {
                assert_eq!(hist.bytes_read, n * NARROW_BYTES, "{shape}");
                assert_eq!(
                    narrow,
                    t(
                        n * (PAIR_BYTES + NARROW_BYTES),
                        n * (NARROW_BYTES + PAIR_BYTES),
                        2 * n
                    ),
                    "{shape}"
                );
            }
            // A zero fold returns before planning: nothing is charged.
            "all_duplicate" => {
                assert!(p.iter().all(|(_, t)| *t == Traffic::default()), "{shape}");
            }
            other => unreachable!("unknown shape {other}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The production sort ≡ the stable reference on every
        /// adversarial shape, at threads {1, 2, 4} and at the forced
        /// parallel-scatter seam, with the predictor confirming that
        /// each shape reached the path it targets.
        #[test]
        fn adversarial_shapes_sort_exactly_on_their_target_path(seed in any::<u64>()) {
            for shape in SHAPES {
                let input = shaped(shape, seed);
                let keys: Vec<u64> = input.iter().map(|p| p.key()).collect();
                assert_target_path(shape, &keys);
                let expected = reference_sort(&input);
                for threads in [1usize, 2, 4] {
                    prop_assert_eq!(&sorted(&input, threads), &expected, "{} threads={}", shape, threads);
                    prop_assert_eq!(
                        &sorted_with(&input, threads, threads),
                        &expected,
                        "{} workers={}",
                        shape,
                        threads
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The production sort ≡ stable comparison sort on arbitrary
        /// batches, including duplicate keys, narrow/holey diff masks
        /// (random `mask` ANDs punch unpredictable constant-bit windows),
        /// and empty/singleton inputs (`len` starts at 0). Sizes span the
        /// cost model's crossover, so both sides of the cutover run.
        #[test]
        fn production_sort_equals_stable_comparison_sort(
            keys in proptest::collection::vec(any::<u64>(), 0..3_000),
            mask in any::<u64>(),
            threads in 1usize..5,
        ) {
            let input: Vec<Pair> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| Pair::new(k & mask, i as u32))
                .collect();
            prop_assert_eq!(&sorted(&input, threads), &reference_sort(&input));
        }

        /// Duplicate-heavy batches (tiny key alphabet) stay stable at the
        /// forced parallel-scatter seam.
        #[test]
        fn duplicate_heavy_batches_stay_stable(
            keys in proptest::collection::vec(0u64..7, 0..600),
            workers in 1usize..6,
        ) {
            let input: Vec<Pair> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| Pair::new(k, i as u32))
                .collect();
            prop_assert_eq!(&sorted_with(&input, 2, workers), &reference_sort(&input));
        }
    }
}
