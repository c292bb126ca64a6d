//! The public device model: load a reference set, run query batches,
//! get functional results plus a timing/energy report.

use std::sync::Mutex;

use sieve_genomics::{Kmer, TaxonId};

use crate::cache;
use crate::config::{DeviceKind, SieveConfig};
use crate::dedup;
use crate::engine;
use crate::error::SieveError;
use crate::etm;
use crate::index::SubarrayIndex;
use crate::layout::DeviceLayout;
use crate::obs;
use crate::par;
use crate::prof;
use crate::radix;
use crate::sched;
use crate::shard::ShardPlan;
use crate::stats::SimReport;
use crate::trace;

/// Largest batch the pipeline can run: queries are tagged with `u32` ids
/// end to end (shard order, dedup mapping, host read owners).
const MAX_BATCH: usize = u32::MAX as usize;

/// Queries per block of the blocked match kernel: big enough to amortize
/// the per-block bookkeeping, small enough that a block of keys plus its
/// outcomes stays cache-resident.
const MATCH_BLOCK: usize = 512;

/// Checks the `u32` indexing bound without allocating anything.
fn check_batch_len(n: usize) -> Result<(), SieveError> {
    if n > MAX_BATCH {
        return Err(SieveError::BatchTooLarge {
            queries: n,
            max: MAX_BATCH,
        });
    }
    Ok(())
}

/// Reusable per-run working memory: dedup tables, radix buffers, the
/// shard plan, and the match-space result arrays. Checked out of the
/// device's [`ScratchArena`] at the top of [`SieveDevice::run`] and
/// returned afterwards, so a streaming host (`classify_stream`) reuses
/// one allocation set across all its chunks.
#[derive(Debug, Default)]
struct RunScratch {
    dedup: dedup::DedupScratch,
    /// Distinct k-mers of the current batch (dedup on).
    uniq: Vec<Kmer>,
    /// `mult[g]` = occurrences of `uniq[g]`.
    mult: Vec<u32>,
    /// `uniq_of[i]` = index into `uniq` for query `i`.
    uniq_of: Vec<u32>,
    /// Radix-sort ping-pong buffers for the planner.
    pairs: Vec<radix::Pair>,
    pairs_scratch: Vec<radix::Pair>,
    /// The sort's count/staging tables (see [`radix::SortScratch`]).
    sort: radix::SortScratch,
    plan: ShardPlan,
    /// Match-space result/work arrays (dedup on; with dedup off the
    /// results scatter straight into the output vector).
    space_results: Vec<Option<TaxonId>>,
    space_work: Vec<QueryWork>,
    loads: Vec<sched::SubLoad>,
}

/// A mutex-guarded pool of [`RunScratch`] sets. One set per *concurrent*
/// run: sequential callers (the common case) recycle a single set
/// indefinitely; concurrent callers each check out their own.
#[derive(Debug, Default)]
struct ScratchArena {
    pool: Mutex<Vec<RunScratch>>,
}

/// Retain at most this many idle scratch sets.
const ARENA_CAP: usize = 8;

impl ScratchArena {
    fn take(&self) -> RunScratch {
        self.pool
            .lock()
            .ok()
            .and_then(|mut pool| pool.pop())
            .unwrap_or_default()
    }

    fn put(&self, scratch: RunScratch) {
        if let Ok(mut pool) = self.pool.lock() {
            if pool.len() < ARENA_CAP {
                pool.push(scratch);
            }
        }
    }
}

impl Clone for ScratchArena {
    /// Cloned devices start with an empty pool (scratch is plain working
    /// memory; there is nothing semantic to copy).
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// The device's cross-chunk hot-k-mer cache (see [`crate::cache`]),
/// engaged only on the streaming path ([`SieveDevice::run_streamed`]).
#[derive(Debug)]
struct HotCache {
    cap: usize,
    inner: Mutex<cache::KmerCache>,
}

impl HotCache {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            inner: Mutex::new(cache::KmerCache::new(cap)),
        }
    }
}

impl Clone for HotCache {
    /// Cloned devices start with an empty cache of the same capacity:
    /// contents are a pure acceleration structure (replays are
    /// bit-identical to re-matching), so there is nothing semantic to
    /// copy, and sharing would entangle the clones' streams.
    fn clone(&self) -> Self {
        Self::new(self.cap)
    }
}

/// Functional results and the simulation report of one run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Per-query payloads, in input order (`None` = miss).
    pub results: Vec<Option<TaxonId>>,
    /// Timing/energy report.
    pub report: SimReport,
}

/// One query's resolved work, before scheduling. The destination
/// subarray lives in the shard plan, not here.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct QueryWork {
    /// Region-1 rows this lookup activates.
    pub rows: u32,
    /// Whether it hit (payload retrieval follows).
    pub hit: bool,
}

/// One match task's resolved output: the task's contribution to its
/// subarray's aggregate load, its hits (tagged with match-space ids for
/// the deterministic scatter), and — only when the run needs per-query
/// work downstream (Type-1 scheduling, cache fill) — one [`QueryWork`]
/// per task query in task order. Loads of tasks from the same (split)
/// shard are *accumulated* by the reduce, so the totals are independent
/// of how shards were split.
struct TaskOutcome {
    subarray: usize,
    load: sched::SubLoad,
    /// Deepest per-query row count in the task (the ETM-termination
    /// depth the trace reports).
    deepest_rows: u32,
    /// `(match-space id, payload)` per hit, in task order.
    hits: Vec<(u32, TaxonId)>,
    /// Per-query work in task order; empty unless requested.
    work: Vec<QueryWork>,
}

/// A loaded Sieve device.
///
/// # Example
///
/// ```
/// use sieve_core::{SieveConfig, SieveDevice};
/// use sieve_dram::Geometry;
/// use sieve_genomics::synth;
///
/// let ds = synth::make_dataset_with(4, 2048, 31, 1);
/// let config = SieveConfig::type3(8).with_geometry(Geometry::scaled_medium());
/// let device = SieveDevice::new(config, ds.entries.clone())?;
/// let queries: Vec<_> = ds.entries.iter().take(100).map(|(k, _)| *k).collect();
/// let out = device.run(&queries)?;
/// assert_eq!(out.report.hits, 100);
/// assert!(out.results.iter().all(Option::is_some));
/// # Ok::<(), sieve_core::SieveError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SieveDevice {
    config: SieveConfig,
    layout: DeviceLayout,
    index: Option<SubarrayIndex>,
    scratch: ScratchArena,
    cache: HotCache,
}

impl SieveDevice {
    /// Validates `config`, lays out `entries`, and builds the index table.
    ///
    /// # Errors
    ///
    /// Propagates configuration, k-mismatch, and capacity errors from
    /// [`DeviceLayout::build`].
    pub fn new(config: SieveConfig, entries: Vec<(Kmer, TaxonId)>) -> Result<Self, SieveError> {
        let layout = DeviceLayout::build(entries, &config)?;
        let index = (!layout.is_empty()).then(|| SubarrayIndex::build(&layout));
        let hot_kmers = config.hot_kmers;
        Ok(Self {
            config,
            layout,
            index,
            scratch: ScratchArena::default(),
            cache: HotCache::new(hot_kmers),
        })
    }

    /// The device configuration.
    #[must_use]
    pub fn config(&self) -> &SieveConfig {
        &self.config
    }

    /// The data layout.
    #[must_use]
    pub fn layout(&self) -> &DeviceLayout {
        &self.layout
    }

    /// The index table, if any data is loaded.
    #[must_use]
    pub fn index(&self) -> Option<&SubarrayIndex> {
        self.index.as_ref()
    }

    /// Functional-only lookup (no timing), for spot checks and tests.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::KMismatch`] for a query of the wrong k.
    pub fn lookup(&self, query: Kmer) -> Result<Option<TaxonId>, SieveError> {
        self.check_k(query)?;
        let Some(index) = &self.index else {
            return Ok(None);
        };
        let sa = self.layout.subarray(index.locate(query));
        Ok(engine::lookup(
            &sa,
            query,
            self.config.etm_enabled,
            self.config.etm_flush_cycles,
        )
        .hit
        .map(|(_, taxon)| taxon))
    }

    /// Runs a query batch: deduplicates it to distinct k-mers (unless
    /// [`SieveConfig::dedup`] is off), radix-sorts and boundary-routes
    /// the distinct set into per-subarray shards, resolves the shards —
    /// split into bounded tasks — functionally on worker threads,
    /// schedules the merged work on the configured design point with
    /// every duplicate charged its cached outcome's full cost, and
    /// scatters results back to all occurrences.
    ///
    /// The dedup → plan → match → reduce structure is deterministic:
    /// per-query results are scattered back by input index and every
    /// merged quantity is an integer sum, so the output is bit-identical
    /// for any [`SieveConfig::threads`] or [`SieveConfig::dedup`]
    /// setting.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::KMismatch`] if any query's k differs from
    /// the loaded database's, and [`SieveError::BatchTooLarge`] if the
    /// batch exceeds the pipeline's `u32` indexing bound.
    pub fn run(&self, queries: &[Kmer]) -> Result<RunOutput, SieveError> {
        self.run_checked(queries, false)
    }

    /// [`Self::run`] with the cross-chunk hot-k-mer cache engaged: repeat
    /// k-mers replay their cached per-subarray outcome instead of
    /// re-entering the sort/route/match path. Used by the streaming host
    /// (`classify_stream`), where consecutive chunks share hot k-mers.
    /// Results and reports are bit-identical to [`Self::run`].
    pub(crate) fn run_streamed(&self, queries: &[Kmer]) -> Result<RunOutput, SieveError> {
        self.run_checked(queries, true)
    }

    fn run_checked(&self, queries: &[Kmer], use_cache: bool) -> Result<RunOutput, SieveError> {
        for q in queries {
            self.check_k(*q)?;
        }
        check_batch_len(queries.len())?;
        let mut scratch = self.scratch.take();
        let out = self.run_with(queries, &mut scratch, use_cache);
        self.scratch.put(scratch);
        Ok(out)
    }

    #[allow(clippy::too_many_lines)]
    fn run_with(&self, queries: &[Kmer], scratch: &mut RunScratch, use_cache: bool) -> RunOutput {
        let rec = obs::global();
        rec.add(obs::CounterId::DeviceRuns, 1);
        let tr = trace::global();
        let t0 = tr.model_ps();
        let threads = par::effective_threads(self.config.threads);
        let n = queries.len();

        let Some(index) = &self.index else {
            // Empty device: every query misses in zero time.
            let report = match self.config.device {
                DeviceKind::Type1 => sched::simulate_type1(
                    &self.config,
                    &self.layout,
                    &[],
                    None,
                    &ShardPlan::empty(),
                    &[],
                    threads,
                    0,
                    0,
                ),
                _ => sched::simulate_type23(&self.config, &[]),
            };
            tr.emit_model("device.run", 0, t0, report.makespan_ps, n as u64, 0);
            tr.advance_model_ps(report.makespan_ps);
            return RunOutput {
                results: vec![None; n],
                report,
            };
        };

        let RunScratch {
            dedup: dedup_scratch,
            uniq,
            mult,
            uniq_of,
            pairs,
            pairs_scratch,
            sort,
            plan,
            space_results,
            space_work,
            loads,
        } = scratch;

        // Dedup: collapse the batch to its distinct k-mers. `mult` then
        // scales every accounted quantity back to occurrence counts, so
        // the run's observable output is identical with the knob off —
        // which is also why dedup may veto itself (returning false) when
        // its sample probe finds too few duplicates to pay for the build.
        let dedup_on = self.config.dedup && n > 0 && {
            let _span = rec.span("device.dedup");
            dedup::dedup(queries, threads, dedup_scratch, uniq, mult, uniq_of)
        };
        let (space_queries, mult): (&[Kmer], Option<&[u32]>) = if dedup_on {
            (uniq, Some(mult))
        } else {
            (queries, None)
        };

        let type1 = matches!(self.config.device, DeviceKind::Type1);
        // Row tables: the per-lookup `rows_activated` arithmetic hoisted
        // out of the match loop. Type-1 row counts come from per-batch
        // ETM (the scheduler recomputes them), so its functional matching
        // runs with zero flush; the ESP cap path charges the configured
        // flush on every design point, exactly as before.
        let bit_len = 2 * self.config.k;
        let table = etm::RowTable::new(
            bit_len,
            self.config.etm_enabled,
            if type1 {
                0
            } else {
                self.config.etm_flush_cycles
            },
        );
        let esp_table = self.config.esp_override.map(|_| {
            etm::RowTable::new(
                bit_len,
                self.config.etm_enabled,
                self.config.etm_flush_cycles,
            )
        });

        let mut results = vec![None; n];
        if dedup_on {
            space_results.clear();
            space_results.resize(space_queries.len(), None);
        }
        // Loads span every occupied subarray: cache replays may land on
        // subarrays the current batch's plan never routes to. The
        // schedulers skip zero-query entries, so the extra length is
        // inert when the cache is off.
        loads.clear();
        loads.resize(index.first_bits().len(), sched::SubLoad::default());

        // The cache serves only the streaming path, and never Type-1
        // (its per-batch ETM recomputes row counts from raw k-mers).
        let cache_enabled = use_cache && self.config.hot_kmers > 0 && !type1;
        let mut cache_guard = if cache_enabled {
            Some(self.cache.inner.lock().expect("cache lock"))
        } else {
            None
        };
        // Plan: decide cache engagement from a strided sample, probe the
        // cache if engaged (replayed queries charge their loads here and
        // skip the device stage), build the `(bits, id)` pairs for the
        // rest, and sort and route them into the shard plan.
        let mut cached_queries = 0u64;
        // OR-fold of `bits ^ first_bits` over the pairs, built while they
        // are pushed: hands the radix sort its digit window without a
        // second scan over the keys (`radix::sort_pairs` docs).
        let mut first_key: Option<u64> = None;
        let mut spread = 0u64;
        let inserting = {
            let _span = rec.span("device.plan");
            let _wall = tr.span("device.plan");
            pairs.clear();
            let observing = rec.is_enabled();
            let engagement = match cache_guard.as_deref_mut() {
                Some(cache) if !space_queries.is_empty() => {
                    let stride = (space_queries.len() / cache::ENGAGE_SAMPLE).max(1);
                    cache.assess(space_queries.iter().step_by(stride).map(|q| q.bits()))
                }
                _ => cache::Engagement::Warm,
            };
            match cache_guard.as_deref() {
                Some(cache) if engagement == cache::Engagement::Probe => {
                    let mut rows_hist = obs::LocalHistogram::new();
                    let mut small_rows = [0u64; 256];
                    let target: &mut Vec<Option<TaxonId>> = if dedup_on {
                        space_results
                    } else {
                        &mut results
                    };
                    for (g, q) in space_queries.iter().enumerate() {
                        let bits = q.bits();
                        let Some(e) = cache.get(bits) else {
                            spread |= bits ^ *first_key.get_or_insert(bits);
                            pairs.push(radix::Pair::new(bits, g as u32));
                            continue;
                        };
                        let m = mult.map_or(1u64, |m| u64::from(m[g]));
                        let hit = e.taxon.is_some();
                        let load = &mut loads[e.sub as usize];
                        load.queries += m;
                        load.rows += u64::from(e.rows) * m;
                        load.hits += u64::from(hit) * m;
                        cached_queries += m;
                        if observing {
                            let rows = u64::from(e.rows);
                            if let Some(slot) = small_rows.get_mut(rows as usize) {
                                *slot += m;
                            } else {
                                rows_hist.record_n(rows, m);
                            }
                        }
                        if let Some(taxon) = e.taxon {
                            target[g] = Some(taxon);
                        }
                    }
                    if observing {
                        for (rows, &c) in small_rows.iter().enumerate() {
                            rows_hist.record_n(rows as u64, c);
                        }
                        rec.merge_local(obs::HistId::EtmRowsActivated, &rows_hist);
                    }
                }
                _ => {
                    pairs.extend(space_queries.iter().enumerate().map(|(g, q)| {
                        let bits = q.bits();
                        spread |= bits ^ *first_key.get_or_insert(bits);
                        radix::Pair::new(bits, g as u32)
                    }));
                }
            }
            if engagement == cache::Engagement::Probe {
                // Weighted (occurrence) counts: identical with dedup on
                // or off, and across thread counts.
                let missed = n as u64 - cached_queries;
                rec.add(obs::CounterId::CacheHits, cached_queries);
                rec.add(obs::CounterId::CacheMisses, missed);
                rec.record(obs::HistId::CacheHitKmers, cached_queries);
                tr.emit_model("cache.probe", 0, t0, 0, cached_queries, missed);
            }
            plan.rebuild(index, pairs, pairs_scratch, sort, threads, Some(spread));
            cache_guard
                .as_deref()
                .is_some_and(cache::KmerCache::accepts_inserts)
        };
        let keep_work = type1 || inserting;
        rec.add(obs::CounterId::MatchQueries, cached_queries);
        rec.add(
            obs::CounterId::MatchHits,
            loads.iter().map(|l| l.hits).sum::<u64>(),
        );

        // Match: the plan's tasks fan out as an indexed map, so the
        // outcomes land indexed by task id and the reduce below consumes
        // them in plan order.
        let outcomes: Vec<TaskOutcome> = {
            let _span = rec.span("device.match");
            let _wall = tr.span("device.match");
            par::map_indexed(threads, plan.task_count(), |t| {
                let (subarray, range) = plan.task(t);
                self.match_pairs(
                    subarray,
                    &pairs[range],
                    mult,
                    &table,
                    esp_table.as_ref(),
                    keep_work,
                )
            })
        };

        // Reduce: accumulate loads per subarray (tasks of a split shard
        // sum), scatter hits by id, feed the cache in task order.
        {
            let _span = rec.span("device.reduce");
            let _wall = tr.span("device.reduce");
            let tracing = tr.is_enabled();
            if type1 {
                space_work.clear();
                space_work.resize(space_queries.len(), QueryWork::default());
            }
            let mut inserted = 0u64;
            let mut reduce_hits = 0u64;
            for (t, outcome) in outcomes.into_iter().enumerate() {
                reduce_hits += outcome.hits.len() as u64;
                rec.add(obs::CounterId::MatchQueries, outcome.load.queries);
                rec.add(obs::CounterId::MatchHits, outcome.load.hits);
                if tracing {
                    // Each task's deepest lookup is where ETM let the
                    // whole task stop activating rows — the per-task
                    // analogue of the paper's ~62 → ~10 claim. Tasks are
                    // consumed in plan order, so the stream is identical
                    // for every thread count.
                    tr.emit_model(
                        "etm.terminate",
                        outcome.subarray as u32,
                        t0,
                        0,
                        u64::from(outcome.deepest_rows),
                        outcome.load.queries,
                    );
                }
                let load = &mut loads[outcome.subarray];
                load.queries += outcome.load.queries;
                load.rows += outcome.load.rows;
                load.hits += outcome.load.hits;
                let target: &mut [Option<TaxonId>] = if dedup_on {
                    space_results
                } else {
                    &mut results
                };
                for &(id, taxon) in &outcome.hits {
                    target[id as usize] = Some(taxon);
                }
                if keep_work {
                    let (_, range) = plan.task(t);
                    let task_pairs = &pairs[range];
                    debug_assert_eq!(task_pairs.len(), outcome.work.len());
                    if type1 {
                        for (&p, &w) in task_pairs.iter().zip(&outcome.work) {
                            space_work[p.id() as usize] = w;
                        }
                    }
                    if inserting {
                        let cache = cache_guard.as_deref_mut().expect("cache engaged");
                        let mut hit_iter = outcome.hits.iter();
                        for (&p, w) in task_pairs.iter().zip(&outcome.work) {
                            let taxon = if w.hit {
                                Some(hit_iter.next().expect("hit per flagged query").1)
                            } else {
                                None
                            };
                            if cache.insert(
                                p.key(),
                                cache::Cached {
                                    sub: outcome.subarray as u32,
                                    rows: w.rows,
                                    taxon,
                                },
                            ) {
                                inserted += 1;
                            }
                        }
                    }
                }
            }
            if inserting {
                rec.add(obs::CounterId::CacheInserts, inserted);
            }
            // Reduce rereads each task's hit list and scatters it into
            // the result table: one read and one write per hit record.
            let hit_bytes = reduce_hits * std::mem::size_of::<(u32, TaxonId)>() as u64;
            prof::record(prof::Phase::DeviceReduce, hit_bytes, hit_bytes, reduce_hits);
            if rec.is_enabled() {
                // Per-subarray query counts (occurrence-expanded, cache
                // replays included), recorded in subarray order so the
                // histogram is independent of the task split and the
                // thread count. One record per subarray that received
                // queries, matching the MatchShards counter.
                let mut shards = 0u64;
                for load in loads.iter() {
                    if load.queries > 0 {
                        shards += 1;
                        rec.record(obs::HistId::ShardQueries, load.queries);
                    }
                }
                rec.add(obs::CounterId::MatchShards, shards);
            }
        }
        let hits: u64 = loads.iter().map(|l| l.hits).sum();

        // Expand: scatter each distinct k-mer's result to its occurrences.
        if dedup_on {
            let _span = rec.span("device.expand");
            let _wall = tr.span("device.expand");
            let chunk = n.div_ceil(threads).max(1);
            let space_results: &[Option<TaxonId>] = space_results;
            let mut items: Vec<(&mut [Option<TaxonId>], &[u32])> = results
                .chunks_mut(chunk)
                .zip(uniq_of.chunks(chunk))
                .collect();
            par::for_each_mut(threads, &mut items, |(out, uniq_of)| {
                for (slot, &g) in out.iter_mut().zip(uniq_of.iter()) {
                    *slot = space_results[g as usize];
                }
            });
        }

        let report = match self.config.device {
            DeviceKind::Type1 => {
                let _span = rec.span("sched.type1");
                let _wall = tr.span("sched.type1");
                sched::simulate_type1(
                    &self.config,
                    &self.layout,
                    space_work,
                    mult,
                    plan,
                    pairs,
                    threads,
                    n as u64,
                    hits,
                )
            }
            _ => sched::simulate_type23(&self.config, loads),
        };
        debug_assert_eq!(report.hits, hits);
        tr.emit_model("device.run", 0, t0, report.makespan_ps, n as u64, hits);
        tr.advance_model_ps(report.makespan_ps);
        RunOutput { results, report }
    }

    /// Resolves one match task: walks the destination subarray's sorted
    /// entries with a merge cursor over the task's sorted `(bits, id)`
    /// pairs, in fixed-size blocks ([`MATCH_BLOCK`]) through the blocked
    /// lookup kernel, producing the task's aggregate load, its hits, and
    /// (when `keep_work`) per-query work. `mult` (dedup on) charges each
    /// distinct k-mer's outcome once per occurrence.
    fn match_pairs(
        &self,
        subarray: usize,
        task_pairs: &[radix::Pair],
        mult: Option<&[u32]>,
        table: &etm::RowTable,
        esp_table: Option<&etm::RowTable>,
        keep_work: bool,
    ) -> TaskOutcome {
        let rec = obs::global();
        // Captured once per task: the per-query hot loop then bumps one
        // slot of a direct-indexed count array (row counts are small —
        // at most 2k plus flush cycles; the histogram fallback only
        // exists for configs that could exceed the array) or skips
        // entirely, folded into a local histogram and merged in one step
        // below — the deterministic-reduce shape at ~1ns per query.
        let observing = rec.is_enabled();
        let mut rows_hist = obs::LocalHistogram::new();
        let mut small_rows = [0u64; 256];
        let mut cursor = engine::MergeCursor::new(self.layout.subarray(subarray));
        let mut load = sched::SubLoad::default();
        let mut deepest_rows = 0u32;
        let mut hits = Vec::new();
        let mut work = Vec::with_capacity(if keep_work { task_pairs.len() } else { 0 });
        let esp = self.config.esp_override.unwrap_or(0) as usize;
        let mut keys = [0u64; MATCH_BLOCK];
        let mut outcomes: Vec<engine::MatchOutcome> = Vec::with_capacity(MATCH_BLOCK);
        for block in task_pairs.chunks(MATCH_BLOCK) {
            for (key, &p) in keys.iter_mut().zip(block) {
                *key = p.key();
            }
            outcomes.clear();
            cursor.lookup_block_with(
                &keys[..block.len()],
                table,
                self.config.host_kernels,
                &mut outcomes,
            );
            for (&p, outcome) in block.iter().zip(&outcomes) {
                let id = p.id();
                let m = mult.map_or(1u64, |m| u64::from(m[id as usize]));
                let hit = outcome.hit.is_some();
                let rows = match (esp_table, hit) {
                    // Paper-ESP assumption: a miss terminates after at
                    // most `esp` shared bits.
                    (Some(esp_table), false) => esp_table.rows(outcome.max_lcp.min(esp)),
                    _ => outcome.rows,
                };
                load.queries += m;
                load.rows += u64::from(rows) * m;
                load.hits += u64::from(hit) * m;
                deepest_rows = deepest_rows.max(rows);
                if observing {
                    let rows = u64::from(rows);
                    if let Some(slot) = small_rows.get_mut(rows as usize) {
                        *slot += m;
                    } else {
                        rows_hist.record_n(rows, m);
                    }
                }
                if let Some((_, taxon)) = outcome.hit {
                    hits.push((id, taxon));
                }
                if keep_work {
                    work.push(QueryWork { rows, hit });
                }
            }
        }
        if observing {
            for (rows, &c) in small_rows.iter().enumerate() {
                rows_hist.record_n(rows as u64, c);
            }
            rec.merge_local(obs::HistId::EtmRowsActivated, &rows_hist);
        }
        // Canonical match traffic: every task streams its sorted pairs
        // once and emits its hits once, so the per-task charges sum to
        // the same totals no matter how the plan split the shard.
        prof::record(
            prof::Phase::DeviceMatch,
            task_pairs.len() as u64 * std::mem::size_of::<radix::Pair>() as u64,
            hits.len() as u64 * std::mem::size_of::<(u32, TaxonId)>() as u64,
            task_pairs.len() as u64,
        );
        TaskOutcome {
            subarray,
            load,
            deepest_rows,
            hits,
            work,
        }
    }

    fn check_k(&self, query: Kmer) -> Result<(), SieveError> {
        if query.k() != self.config.k {
            return Err(SieveError::KMismatch {
                expected: self.config.k,
                actual: query.k(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_dram::Geometry;
    use sieve_genomics::synth;

    fn dataset() -> synth::SyntheticDataset {
        synth::make_dataset_with(8, 2048, 31, 13)
    }

    fn device(config: SieveConfig) -> SieveDevice {
        SieveDevice::new(
            config.with_geometry(Geometry::scaled_medium()),
            dataset().entries,
        )
        .unwrap()
    }

    fn probes(ds: &synth::SyntheticDataset, n: usize) -> Vec<Kmer> {
        let (reads, _) = synth::simulate_reads(ds, synth::ReadSimConfig::default(), n, 5);
        reads
            .iter()
            .flat_map(|r| r.kmers(31).map(|(_, k)| k))
            .take(n * 10)
            .collect()
    }

    #[test]
    fn functional_results_match_sorted_db_on_all_types() {
        let ds = dataset();
        let queries = probes(&ds, 50);
        let reference = sieve_genomics::db::SortedDb::from_entries(ds.entries.clone(), 31);
        use sieve_genomics::db::KmerDatabase;
        for config in [
            SieveConfig::type1(),
            SieveConfig::type2(4),
            SieveConfig::type3(8),
        ] {
            let dev = device(config);
            let out = dev.run(&queries).unwrap();
            for (q, r) in queries.iter().zip(&out.results) {
                assert_eq!(*r, reference.get(*q), "query {q}");
            }
        }
    }

    #[test]
    fn hits_counted_in_report() {
        let ds = dataset();
        let dev = device(SieveConfig::type3(8));
        let present: Vec<Kmer> = ds.entries.iter().step_by(111).map(|(k, _)| *k).collect();
        let out = dev.run(&present).unwrap();
        assert_eq!(out.report.hits, present.len() as u64);
        assert_eq!(out.report.queries, present.len() as u64);
    }

    #[test]
    fn empty_device_misses_everything_in_zero_time() {
        let config = SieveConfig::type3(8).with_geometry(Geometry::scaled_medium());
        let dev = SieveDevice::new(config, Vec::new()).unwrap();
        let q = Kmer::from_u64(123, 31).unwrap();
        assert_eq!(dev.lookup(q).unwrap(), None);
        let out = dev.run(&[q]).unwrap();
        assert_eq!(out.results, vec![None]);
        assert_eq!(out.report.row_activations, 0);
    }

    #[test]
    fn k_mismatch_rejected_everywhere() {
        let dev = device(SieveConfig::type3(8));
        let q21 = Kmer::from_u64(5, 21).unwrap();
        assert!(dev.lookup(q21).is_err());
        assert!(dev.run(&[q21]).is_err());
    }

    #[test]
    fn lookup_agrees_with_run() {
        let ds = dataset();
        let dev = device(SieveConfig::type3(8));
        let queries = probes(&ds, 30);
        let out = dev.run(&queries).unwrap();
        for (q, r) in queries.iter().zip(&out.results) {
            assert_eq!(dev.lookup(*q).unwrap(), *r);
        }
    }

    #[test]
    fn oversized_batch_is_a_typed_error_not_a_panic() {
        // Purely synthetic: exercise the guard on the count alone, no
        // 4-billion-query allocation anywhere.
        assert_eq!(check_batch_len(0), Ok(()));
        assert_eq!(check_batch_len(MAX_BATCH), Ok(()));
        assert_eq!(
            check_batch_len(MAX_BATCH + 1),
            Err(SieveError::BatchTooLarge {
                queries: MAX_BATCH + 1,
                max: MAX_BATCH,
            })
        );
        let msg = check_batch_len(MAX_BATCH + 1).unwrap_err().to_string();
        assert!(msg.contains("4294967296"), "{msg}");
    }

    #[test]
    fn dedup_on_and_off_produce_identical_output() {
        let ds = dataset();
        // Heavy duplication: every probe appears several times.
        let base = probes(&ds, 40);
        let mut queries = Vec::new();
        for _ in 0..3 {
            queries.extend_from_slice(&base);
        }
        for config in [
            SieveConfig::type1(),
            SieveConfig::type2(4),
            SieveConfig::type3(8),
        ] {
            let on = device(config.clone().with_dedup(true))
                .run(&queries)
                .unwrap();
            let off = device(config.with_dedup(false)).run(&queries).unwrap();
            assert_eq!(on.results, off.results);
            assert_eq!(on.report, off.report);
        }
    }

    #[test]
    fn streamed_cache_replays_are_bit_identical() {
        let ds = dataset();
        let queries = probes(&ds, 60);
        let dev = device(SieveConfig::type3(8));
        // First streamed run fills the cache; the second replays most of
        // the batch from it. Both must equal the uncached batch run.
        let batch = dev.run(&queries).unwrap();
        let first = dev.run_streamed(&queries).unwrap();
        let second = dev.run_streamed(&queries).unwrap();
        assert!(!dev.cache.inner.lock().unwrap().is_empty());
        for out in [&first, &second] {
            assert_eq!(out.results, batch.results);
            assert_eq!(out.report, batch.report);
        }
        // The batch API must never touch the cache.
        let cached = dev.cache.inner.lock().unwrap().len();
        let _ = dev.run(&queries).unwrap();
        assert_eq!(dev.cache.inner.lock().unwrap().len(), cached);
    }

    #[test]
    fn zero_capacity_cache_disables_replay() {
        let ds = dataset();
        let queries = probes(&ds, 30);
        let dev = device(SieveConfig::type3(8).with_hot_kmers(0));
        let batch = dev.run(&queries).unwrap();
        let streamed = dev.run_streamed(&queries).unwrap();
        assert_eq!(streamed.results, batch.results);
        assert_eq!(streamed.report, batch.report);
        assert!(dev.cache.inner.lock().unwrap().is_empty());
    }

    #[test]
    fn long_period_redundancy_reengages_the_cache() {
        let dev = device(SieveConfig::type3(8));
        let batch = |b: u64| -> Vec<Kmer> {
            (0..2_000u64)
                .map(|i| Kmer::from_u64(b * 1_000_000 + i, 31).unwrap())
                .collect()
        };
        // Four batches of entirely novel k-mers: every engagement sample
        // runs cold, so no full probe fires, but the cache keeps warming
        // (all four batches fit under the warm cap).
        let mut outputs = Vec::new();
        for b in 0..4 {
            outputs.push(dev.run_streamed(&batch(b)).unwrap());
        }
        assert!(!dev.cache.inner.lock().unwrap().is_proven());
        // Batch 0 recurs with a period longer than any fixed strike
        // budget could tolerate: the sample hits its warmed entries, the
        // run replays from the cache, and the replay is bit-identical.
        let replay = dev.run_streamed(&batch(0)).unwrap();
        assert!(dev.cache.inner.lock().unwrap().is_proven());
        assert_eq!(replay.results, outputs[0].results);
        assert_eq!(replay.report, outputs[0].report);
    }

    #[test]
    fn cloned_device_starts_with_an_empty_cache() {
        let ds = dataset();
        let queries = probes(&ds, 30);
        let dev = device(SieveConfig::type3(8));
        let _ = dev.run_streamed(&queries).unwrap();
        assert!(!dev.cache.inner.lock().unwrap().is_empty());
        let cloned = dev.clone();
        assert!(cloned.cache.inner.lock().unwrap().is_empty());
    }

    #[test]
    fn scratch_arena_recycles_across_runs() {
        let ds = dataset();
        let dev = device(SieveConfig::type3(8));
        let queries = probes(&ds, 30);
        let first = dev.run(&queries).unwrap();
        assert_eq!(dev.scratch.pool.lock().unwrap().len(), 1);
        let second = dev.run(&queries).unwrap();
        assert_eq!(dev.scratch.pool.lock().unwrap().len(), 1);
        assert_eq!(first.results, second.results);
        assert_eq!(first.report, second.report);
        // Cloning must not share (or copy) pooled scratch.
        let cloned = dev.clone();
        assert_eq!(cloned.scratch.pool.lock().unwrap().len(), 0);
    }

    #[test]
    fn etm_reduces_activations() {
        let ds = dataset();
        let queries = probes(&ds, 100);
        let with = device(SieveConfig::type3(8)).run(&queries).unwrap();
        let without = device(SieveConfig::type3(8).with_etm(false))
            .run(&queries)
            .unwrap();
        assert!(
            with.report.row_activations < without.report.row_activations / 2,
            "ETM should prune most activations: {} vs {}",
            with.report.row_activations,
            without.report.row_activations
        );
        assert!(with.report.makespan_ps < without.report.makespan_ps);
        // Functional results identical.
        assert_eq!(with.results, without.results);
    }
}
