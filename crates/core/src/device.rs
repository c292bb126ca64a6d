//! The public device model: load a reference set, run query batches,
//! get functional results plus a timing/energy report.
//!
//! [`SieveDevice::run`] is the one production path for every caller
//! (batch, streamed and paired classification alike): dedup → plan →
//! match → reduce → expand, then the design point's scheduler. On Type-2/3
//! devices the plan step first probes the static exact-match index of the
//! reference ([`crate::member`]) when a strided sample of the batch hits it
//! often enough; member hits are charged their full-sweep outcome in
//! place, inside a `device.member` span, and only the misses are sorted,
//! routed and matched. The device holds no state that a run changes —
//! beyond recycled scratch memory — so a run's output depends on its
//! batch alone.

use std::sync::Mutex;

use sieve_genomics::{Kmer, TaxonId};

use crate::config::{DeviceKind, SieveConfig};
use crate::dedup;
use crate::engine;
use crate::error::SieveError;
use crate::etm;
use crate::index::SubarrayIndex;
use crate::layout::DeviceLayout;
use crate::member::MemberIndex;
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
    /// Whether it hit (payload retrieval follows).
    pub hit: bool,
}

/// One match task's resolved output: the task's contribution to its
/// subarray's aggregate load, its hits (tagged with match-space ids for
/// the deterministic scatter), and — only for Type-1, whose scheduler
/// needs per-query work — one [`QueryWork`] per task query in task
/// order. Loads of tasks from the same (split) shard are *accumulated* by
/// the reduce, so the totals are independent of how shards were split.
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
    /// Exact-match index of the reference (Type-2/3 with data loaded):
    /// member hits skip the sort/route/match path.
    member: Option<MemberIndex>,
    scratch: ScratchArena,
}

impl SieveDevice {
    /// Validates `config`, lays out `entries`, and builds the index table
    /// and — except on Type-1, whose batch ETM needs every query — the
    /// exact-match member index.
    ///
    /// # Errors
    ///
    /// Propagates configuration, k-mismatch, and capacity errors from
    /// [`DeviceLayout::build`].
    pub fn new(config: SieveConfig, entries: Vec<(Kmer, TaxonId)>) -> Result<Self, SieveError> {
        let layout = DeviceLayout::build(entries, &config)?;
        let index = (!layout.is_empty()).then(|| SubarrayIndex::build(&layout));
        let member = (!layout.is_empty() && !matches!(config.device, DeviceKind::Type1))
            .then(|| MemberIndex::build(layout.entries(), 2 * config.k));
        Ok(Self {
            config,
            layout,
            index,
            member,
            scratch: ScratchArena::default(),
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
    /// [`SieveConfig::dedup`] is off), resolves reference members through
    /// the exact-match index when a strided sample says enough of the
    /// batch hits, radix-sorts and boundary-routes the rest into
    /// per-subarray shards, resolves the shards — split into bounded
    /// tasks — functionally on worker threads, schedules the merged work
    /// on the configured design point with every duplicate charged its
    /// outcome's full cost, and scatters results back to all occurrences.
    ///
    /// The dedup → plan → match → reduce structure is deterministic:
    /// per-query results are scattered back by input index and every
    /// merged quantity is an integer sum, so the output is bit-identical
    /// for any [`SieveConfig::threads`] or [`SieveConfig::dedup`]
    /// setting, and whether or not the member index engaged.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::KMismatch`] if any query's k differs from
    /// the loaded database's, and [`SieveError::BatchTooLarge`] if the
    /// batch exceeds the pipeline's `u32` indexing bound.
    pub fn run(&self, queries: &[Kmer]) -> Result<RunOutput, SieveError> {
        for q in queries {
            self.check_k(*q)?;
        }
        check_batch_len(queries.len())?;
        let mut scratch = self.scratch.take();
        let out = self.run_with(queries, &mut scratch);
        self.scratch.put(scratch);
        Ok(out)
    }

    #[allow(clippy::too_many_lines)]
    fn run_with(&self, queries: &[Kmer], scratch: &mut RunScratch) -> RunOutput {
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
        // Loads span every occupied subarray: member hits may land on
        // subarrays the current batch's plan never routes to. The
        // schedulers skip zero-query entries, so the extra length is inert
        // when nothing hits.
        loads.clear();
        loads.resize(index.first_bits().len(), sched::SubLoad::default());

        // Plan: when a strided sample of the batch hits the member index
        // often enough, probe every query there (hits charge their loads
        // and results here and skip the device stage), build the
        // `(bits, id)` pairs for the rest, and sort and route them into
        // the shard plan.
        let mut member_hits = 0u64;
        {
            let _span = rec.span("device.plan");
            let _wall = tr.span("device.plan");
            // OR-fold of `bits ^ first_bits` over the pairs, built while
            // they are pushed: hands the radix sort its digit window
            // without a second scan over the keys (`radix::sort_pairs`
            // docs).
            let mut first_key: Option<u64> = None;
            let mut spread = 0u64;
            pairs.clear();
            match self.member.as_ref().filter(|m| m.engages(space_queries)) {
                Some(member) => {
                    let _span = rec.span("device.member");
                    let _wall = tr.span("device.member");
                    let target: &mut [Option<TaxonId>] = if dedup_on {
                        space_results
                    } else {
                        &mut results
                    };
                    let refs_per_subarray = self.layout.refs_per_subarray();
                    for (g, q) in space_queries.iter().enumerate() {
                        let bits = q.bits();
                        let Some((rank, taxon)) = member.get(bits) else {
                            spread |= bits ^ *first_key.get_or_insert(bits);
                            pairs.push(radix::Pair::new(bits, g as u32));
                            continue;
                        };
                        let m = mult.map_or(1u64, |m| u64::from(m[g]));
                        loads[(rank / refs_per_subarray) as usize].hits += m;
                        member_hits += m;
                        target[g] = Some(taxon);
                    }
                    // Every hit sweeps the full Region 1: one row count
                    // for all of them, applied per subarray once the
                    // probe is done (loads held nothing before it).
                    let hit_rows = table.rows(bit_len);
                    for load in loads.iter_mut() {
                        load.queries = load.hits;
                        load.rows = load.hits * u64::from(hit_rows);
                    }
                    // Weighted (occurrence) counts: identical with dedup
                    // on or off, and across thread counts.
                    let missed = n as u64 - member_hits;
                    rec.add(obs::CounterId::MemberHits, member_hits);
                    rec.add(obs::CounterId::MemberMisses, missed);
                    rec.record(obs::HistId::MemberHitKmers, member_hits);
                    if rec.is_enabled() {
                        let mut rows_hist = obs::LocalHistogram::new();
                        rows_hist.record_n(u64::from(hit_rows), member_hits);
                        rec.merge_local(obs::HistId::EtmRowsActivated, &rows_hist);
                    }
                    tr.emit_model("member.probe", 0, t0, 0, member_hits, missed);
                }
                None => {
                    pairs.extend(space_queries.iter().enumerate().map(|(g, q)| {
                        let bits = q.bits();
                        spread |= bits ^ *first_key.get_or_insert(bits);
                        radix::Pair::new(bits, g as u32)
                    }));
                }
            }
            plan.rebuild(index, pairs, pairs_scratch, sort, threads, Some(spread));
        }
        rec.add(obs::CounterId::MatchQueries, member_hits);
        rec.add(obs::CounterId::MatchHits, member_hits);

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
                    type1,
                )
            })
        };

        // Reduce: accumulate loads per subarray (tasks of a split shard
        // sum) and scatter hits by id, in task order.
        {
            let _span = rec.span("device.reduce");
            let _wall = tr.span("device.reduce");
            let tracing = tr.is_enabled();
            if type1 {
                space_work.clear();
                space_work.resize(space_queries.len(), QueryWork::default());
            }
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
                if type1 {
                    let (_, range) = plan.task(t);
                    let task_pairs = &pairs[range];
                    debug_assert_eq!(task_pairs.len(), outcome.work.len());
                    for (&p, &w) in task_pairs.iter().zip(&outcome.work) {
                        space_work[p.id() as usize] = w;
                    }
                }
            }
            // Reduce rereads each task's hit list and scatters it into
            // the result table: one read and one write per hit record.
            let hit_bytes = reduce_hits * std::mem::size_of::<(u32, TaxonId)>() as u64;
            prof::record(prof::Phase::DeviceReduce, hit_bytes, hit_bytes, reduce_hits);
            if rec.is_enabled() {
                // Per-subarray query counts (occurrence-expanded, member
                // hits included), recorded in subarray order so the
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
                    work.push(QueryWork { hit });
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

    /// The probe-free oracle: every query located by the index table,
    /// looked up on its own and charged individually into per-subarray
    /// loads, then scheduled — no dedup, no member index, no sort.
    fn probe_free_oracle(dev: &SieveDevice, queries: &[Kmer]) -> (Vec<Option<TaxonId>>, SimReport) {
        let config = &dev.config;
        let index = dev.index().expect("data loaded");
        let mut loads = vec![sched::SubLoad::default(); index.len()];
        let results = queries
            .iter()
            .map(|&q| {
                let sub = index.locate(q);
                let (etm, flush) = (config.etm_enabled, config.etm_flush_cycles);
                let outcome = engine::lookup(&dev.layout.subarray(sub), q, etm, flush);
                let rows = match (config.esp_override, outcome.hit) {
                    (Some(esp), None) => {
                        let lcp = outcome.max_lcp.min(esp as usize);
                        etm::rows_activated(lcp, q.bit_len(), etm, flush).rows
                    }
                    _ => outcome.rows,
                };
                let load = &mut loads[sub];
                load.queries += 1;
                load.rows += u64::from(rows);
                load.hits += u64::from(outcome.hit.is_some());
                outcome.hit.map(|(_, taxon)| taxon)
            })
            .collect();
        (results, sched::simulate_type23(config, &loads))
    }

    /// A hit-heavy batch with repeats (so dedup engages too): stored
    /// k-mers, each present twice, plus a tail of read k-mers.
    fn hit_heavy(ds: &synth::SyntheticDataset) -> Vec<Kmer> {
        let stored: Vec<Kmer> = ds.entries.iter().step_by(5).map(|(k, _)| *k).collect();
        let mut queries = stored.clone();
        queries.extend(stored.iter().rev());
        queries.extend(probes(ds, 40));
        queries
    }

    #[test]
    fn member_hits_match_the_probe_free_oracle() {
        let ds = dataset();
        let engaged = hit_heavy(&ds);
        let vetoed = probes(&ds, 120);
        for config in [
            SieveConfig::type3(8),
            SieveConfig::type2(4),
            SieveConfig::type3(8).with_esp_override(10),
            SieveConfig::type3(8).with_etm(false),
        ] {
            for (queries, engages) in [(&engaged, true), (&vetoed, false)] {
                let oracle_dev = device(config.clone());
                let member = oracle_dev.member.as_ref().expect("Type-2/3 builds one");
                assert_eq!(member.engages(queries), engages);
                let (results, report) = probe_free_oracle(&oracle_dev, queries);
                for threads in [1usize, 4] {
                    for dedup in [true, false] {
                        let dev = device(config.clone().with_threads(threads).with_dedup(dedup));
                        let out = dev.run(queries).unwrap();
                        let context = format!(
                            "{} engages={engages} threads={threads} dedup={dedup}",
                            config.device.label()
                        );
                        assert_eq!(out.results, results, "{context}: results");
                        assert_eq!(out.report, report, "{context}: report");
                    }
                }
            }
        }
    }

    #[test]
    fn type1_builds_no_member_index() {
        assert!(device(SieveConfig::type1()).member.is_none());
        assert!(device(SieveConfig::type3(8)).member.is_some());
        let config = SieveConfig::type3(8).with_geometry(Geometry::scaled_medium());
        assert!(SieveDevice::new(config, Vec::new())
            .unwrap()
            .member
            .is_none());
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
