//! Timing/energy schedulers for the three design points.
//!
//! The schedulers consume resolved per-query work (rows to activate, hit or
//! miss) and account for where the time goes on each design:
//!
//! * **Type-3**: each subarray matches locally; a bank runs up to `salp`
//!   subarrays concurrently (LPT assignment of subarray loads onto SALP
//!   slots).
//! * **Type-2**: a subarray group shares one compute buffer; every row
//!   activation additionally pays `hops × hop_delay` to relay the row to
//!   the buffer, and group members serialize on the buffer.
//! * **Type-1**: queries serialize through the per-bank matcher array; each
//!   activated row is streamed in 64-bit batches, skipping batches whose
//!   skip bit has cleared (batch-granular ETM). A batch's skip bit clears
//!   one row past its maximum LCP against the query, so the accounting
//!   needs every batch's max LCP per query. Each batch is a contiguous
//!   rank range of the subarray's sorted entries, and a task's queries
//!   arrive sorted, so consecutive queries sharing `s` prefix bits leave
//!   every batch whose max LCP is below `s` unchanged; only the one run
//!   of batches around the insertion point is recomputed
//!   ([`BatchEtm`]). That costs O(changed batches + live-row buckets) per
//!   query — about three batches of 128 on real reads — instead of one
//!   binary search per batch, O(128 · log 64).
//!
//! Occupied subarrays are placed round-robin across banks (and, within a
//! bank, round-robin across compute buffers / SALP positions starting
//! nearest the buffer), which is the paper's co-location argument: spread
//! the sorted partitions so matching requests do not pile onto one bank.

use sieve_dram::{EnergyLedger, TimePs};

use crate::config::{DeviceKind, SieveConfig};
use crate::device::QueryWork;
use crate::energy_model::ComponentEnergies;
use crate::engine;
use crate::etm;
use crate::layout::DeviceLayout;
use crate::obs;
use crate::par;
use crate::radix;
use crate::shard::ShardPlan;
use crate::stats::SimReport;
use crate::trace;

/// Per-subarray aggregated work, produced shard-by-shard by the matchers.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SubLoad {
    /// Queries routed to the subarray.
    pub queries: u64,
    /// Region-1 rows its lookups activate.
    pub rows: u64,
    /// Hits among its queries.
    pub hits: u64,
}

/// Time to retrieve one payload: activate the Region-2 offset row and the
/// Region-3 payload row, with one burst read each.
fn payload_time(config: &SieveConfig) -> TimePs {
    2 * config.timing.row_cycle() + 2 * config.timing.t_ccd
}

/// Whole-run counters accumulated by a scheduler, consumed by [`finalize`].
struct RunTotals {
    queries: u64,
    hits: u64,
    row_activations: u64,
    write_bursts: u64,
    read_bursts: u64,
}

/// Finalizes a report: static energy, PCIe constraints.
fn finalize(
    config: &SieveConfig,
    mut energy: EnergyLedger,
    ideal_makespan: TimePs,
    makespan_with_dispatch: TimePs,
    totals: RunTotals,
) -> SimReport {
    let RunTotals {
        queries,
        hits,
        row_activations,
        write_bursts,
        read_bursts,
    } = totals;
    let makespan = match &config.pcie {
        Some(link) if queries > 0 => {
            let input_end = link.request_ready_ps(queries - 1);
            let response_end = link.response_drain_ps(queries, link.request_bytes);
            let total =
                makespan_with_dispatch.max(input_end).max(response_end) + link.base_latency_ps;
            // How much the link (packetization, queueing, drain) stretched
            // the run beyond ideal dispatch — pure model time, so the
            // histogram stays deterministic.
            let stall = total.saturating_sub(ideal_makespan);
            obs::global().record(obs::HistId::DispatchStallPs, stall);
            let tr = trace::global();
            tr.emit_model(
                "dispatch.stall",
                0,
                tr.model_ps() + ideal_makespan,
                stall,
                stall,
                queries,
            );
            total
        }
        _ => ideal_makespan,
    };
    energy.static_fj += config
        .energy
        .static_energy(config.geometry.total_banks(), makespan);
    SimReport {
        device: config.device.label(),
        queries,
        hits,
        makespan_ps: makespan,
        ideal_makespan_ps: ideal_makespan,
        energy,
        row_activations,
        rows_without_etm: queries * u64::from(config.region1_rows()),
        write_bursts,
        read_bursts,
    }
}

/// Longest-processing-time assignment of loads onto `slots` parallel units;
/// returns the makespan.
fn lpt_makespan(mut loads: Vec<TimePs>, slots: usize) -> TimePs {
    assert!(slots >= 1);
    loads.sort_unstable_by(|a, b| b.cmp(a));
    let mut bins = vec![0u64; slots];
    for load in loads {
        let min = bins
            .iter_mut()
            .min_by_key(|b| **b)
            .expect("at least one slot");
        *min += load;
    }
    bins.into_iter().max().unwrap_or(0)
}

/// Schedules Type-2/3 work from per-subarray loads (index = occupied
/// subarray id; unoccupied gaps carry zero queries). The loads table is
/// built by the sharded matchers; iteration below is in subarray order,
/// so the schedule is independent of how the shards were executed.
pub(crate) fn simulate_type23(config: &SieveConfig, loads: &[SubLoad]) -> SimReport {
    let comp = ComponentEnergies::paper();
    let banks = config.geometry.total_banks();
    let row_cycle = config.timing.row_cycle();
    let queries_per_batch = u64::from(config.queries_per_group);
    let writes_per_batch = u64::from(config.batch_replacement_writes());
    // Replacing a 64-query batch opens each Region-1 row once and streams
    // one 64-bit write per pattern group into the query columns; the
    // shared formula also backs xcheck::setup_per_batch.
    let setup_per_batch = config.batch_setup_ps();
    let hit_extra =
        etm::hit_identify_ps(config.etm_segments(), &config.timing) + payload_time(config);

    let mut energy = EnergyLedger::new();
    let mut row_activations = 0u64;
    let mut write_bursts = 0u64;
    let mut read_bursts = 0u64;
    let mut total_batches = 0u64;
    // Type-3: per bank, the busy time of each occupied subarray (scheduled
    // onto `salp` slots). Type-2: per bank, one serial stream — relaying a
    // row to a compute buffer monopolizes the bank's bitline/sense-amp
    // chain (only two SA sets may be enabled at once, §IV-A), so compute
    // buffers reduce *hop distance*, not intra-bank parallelism. This is
    // what makes the paper's T2.128CB only slightly trail T3.1SA.
    let mut bank_sub_loads: Vec<Vec<TimePs>> = vec![Vec::new(); banks];
    let mut bank_sub_loads_pcie: Vec<Vec<TimePs>> = vec![Vec::new(); banks];
    let mut bank_serial: Vec<TimePs> = vec![0; banks];
    let mut bank_serial_pcie: Vec<TimePs> = vec![0; banks];
    let batch_overhead = config
        .pcie
        .as_ref()
        .map_or(0, crate::pcie::PcieConfig::batch_overhead_ps);
    let t3_salp = match config.device {
        DeviceKind::Type2 { .. } => 0usize,
        DeviceKind::Type3 { salp } => salp as usize,
        DeviceKind::Type1 => unreachable!("Type-1 uses simulate_type1"),
    };
    // Occupied subarrays per bank, to place them spread across the bank
    // (as a filled device would be) for hop-distance purposes.
    let mut per_bank_occupied = vec![0usize; banks];
    for (i, l) in loads.iter().enumerate() {
        if l.queries > 0 {
            per_bank_occupied[i % banks] += 1;
        }
    }
    let mut per_bank_seen = vec![0usize; banks];
    let mut bank_acts = vec![0u64; banks];

    for (i, l) in loads.iter().enumerate() {
        if l.queries == 0 {
            continue;
        }
        let bank = i % banks;
        let hops = match config.device {
            DeviceKind::Type2 { compute_buffers } => {
                // Spread occupied subarrays evenly over the bank's physical
                // positions; hop distance is the position within its
                // subarray group (the compute buffer sits at the group
                // boundary).
                let j = per_bank_seen[bank];
                per_bank_seen[bank] += 1;
                let pos = j * config.geometry.subarrays_per_bank as usize
                    / per_bank_occupied[bank].max(1);
                let group = (config.geometry.subarrays_per_bank / compute_buffers) as usize;
                (pos % group) as u64 + 1
            }
            _ => 0,
        };
        let per_row_extra = hops * config.hop_delay_ps;
        let batches = l.queries.div_ceil(queries_per_batch);
        total_batches += batches;
        let setup = batches * setup_per_batch;
        let busy = setup + l.rows * (row_cycle + per_row_extra) + l.hits * hit_extra;
        let busy_pcie = busy + batches * batch_overhead;

        let tr = trace::global();
        if tr.is_enabled() {
            // One busy interval per occupied subarray (the loads table is
            // walked in subarray order — deterministic), and the Column
            // Finder's hit-identification + payload drain as its tail:
            // visibly off the critical path of the *next* subarray's work.
            let t_base = tr.model_ps();
            tr.emit_model("batch.issue", i as u32, t_base, busy, batches, l.queries);
            let cf = l.hits * hit_extra;
            if cf > 0 {
                tr.emit_model("cf.drain", i as u32, t_base + busy - cf, cf, l.hits, 0);
            }
        }

        row_activations += l.rows;
        bank_acts[bank] += l.rows + 2 * l.hits;
        write_bursts += batches * writes_per_batch;
        read_bursts += 2 * l.hits;
        energy.activation_fj += u128::from(l.rows) * u128::from(config.energy.e_act);
        // Matcher + ETM overhead per activation (~6 %).
        energy.component_fj += u128::from(l.rows)
            * u128::from(config.energy.e_act * config.matcher_overhead_pct / 100);
        // Type-2 relay: each hop re-fires a set of local sense amplifiers
        // (~1/8 of a full activation, per the tSA ≈ tRAS/8 SPICE result).
        energy.component_fj +=
            u128::from(l.rows) * u128::from(hops) * u128::from(config.energy.e_act / 8);
        energy.write_fj += u128::from(batches * writes_per_batch) * u128::from(config.energy.e_wr);
        // Hits: finders + payload rows (plain activations; matchers bypassed).
        energy.component_fj += u128::from(l.hits) * u128::from(comp.finder_fj);
        energy.activation_fj += u128::from(2 * l.hits) * u128::from(config.energy.e_act);
        energy.read_fj += u128::from(2 * l.hits) * u128::from(config.energy.e_rd);
        row_activations += 2 * l.hits;

        match config.device {
            DeviceKind::Type2 { .. } => {
                bank_serial[bank] += busy;
                bank_serial_pcie[bank] += busy_pcie;
            }
            _ => {
                bank_sub_loads[bank].push(busy);
                bank_sub_loads_pcie[bank].push(busy_pcie);
            }
        }
    }

    // Per-bank makespan: parallel (or serial) matching time, floored by the
    // bank's power-delivery activation window (tFAW — this is what
    // saturates the SALP sweep of Figure 16), stretched by refresh.
    let makespan_of = |serial: &[TimePs], subs: &[Vec<TimePs>]| {
        (0..banks)
            .map(|b| {
                let base = match config.device {
                    DeviceKind::Type2 { .. } => serial[b],
                    _ => lpt_makespan(subs[b].clone(), t3_salp.max(1)),
                };
                config
                    .timing
                    .with_refresh(base.max(config.timing.faw_floor(bank_acts[b])))
            })
            .max()
            .unwrap_or(0)
    };
    let ideal = makespan_of(&bank_serial, &bank_sub_loads);
    let busy_with_dispatch = makespan_of(&bank_serial_pcie, &bank_sub_loads_pcie);

    obs::global().add(obs::CounterId::SchedBatches, total_batches);
    let queries = loads.iter().map(|l| l.queries).sum();
    let hits = loads.iter().map(|l| l.hits).sum();
    finalize(
        config,
        energy,
        ideal,
        busy_with_dispatch,
        RunTotals {
            queries,
            hits,
            row_activations,
            write_bursts,
            read_bursts,
        },
    )
}

/// One shard's Type-1 contribution: integer partials whose merge order
/// cannot affect the totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Type1Partial {
    subarray: usize,
    busy: TimePs,
    row_activations: u64,
    read_bursts: u64,
    activation_fj: u128,
    read_fj: u128,
    component_fj: u128,
}

/// Bit of live-row bucket `d` (1..=64) in [`BatchEtm::mask`].
#[inline]
fn bucket_bit(d: usize) -> u64 {
    1u64 << (d - 1)
}

/// Batch-granular ETM state of one Type-1 task, updated incrementally
/// across the task's queries.
///
/// For each non-empty batch it keeps `raw`, the batch's maximum LCP
/// against the last query, and it keeps the histogram of the rows each
/// batch stays live. For queries `p` then `q` sharing `s` prefix bits, a
/// batch with `raw < s` keeps its value: each of its entries diverges
/// from `p` — and so from `q` — at the same bit before `s`. Only batches
/// with `raw ≥ s` can change. They hold the entries that share those `s`
/// bits, one contiguous rank block, so they form one contiguous run
/// around `q`'s insertion point. [`BatchEtm::advance`] recomputes just
/// that run, each batch in O(1) from its entries nearest the insertion
/// point.
struct BatchEtm<'a> {
    entries: &'a [(sieve_genomics::Kmer, sieve_genomics::TaxonId)],
    /// Rank range of each non-empty batch, in rank order. The batches
    /// tile `0..entries.len()`.
    bounds: Vec<(u32, u32)>,
    /// Per-batch maximum LCP against the last query, uncapped.
    raw: Vec<u8>,
    /// `live[lcp]`: rows a batch with maximum LCP `lcp` stays live.
    live: [u8; 65],
    /// `hist[d]`: batches live through exactly `d` rows (`1..=bit_len`).
    hist: [u32; 65],
    /// Bit `d − 1` set iff `hist[d] > 0`.
    mask: u64,
    /// Σ live rows over the batches: the read bursts of one query.
    sum_live: u64,
    bit_len: usize,
    /// Insertion point of the last query in `entries`.
    ins: usize,
    /// First batch ending after `ins` (`bounds.len()` if none).
    batch: usize,
    last: Option<u64>,
}

impl<'a> BatchEtm<'a> {
    /// State for `entries` split into `bounds`, primed so the first
    /// [`Self::advance`] recomputes every batch: all `raw` start at 0,
    /// which every query shares.
    fn new(
        entries: &'a [(sieve_genomics::Kmer, sieve_genomics::TaxonId)],
        bounds: Vec<(u32, u32)>,
        bit_len: usize,
        esp: Option<usize>,
    ) -> Self {
        assert!(
            (2..=64).contains(&bit_len),
            "k-mer bit length {bit_len} out of range"
        );
        // Rows a batch stays live: one past its LCP (the batch is compared
        // on its death row), capped at 2k, with a miss's LCP first capped
        // at the ESP override when one is set.
        let mut live = [0u8; 65];
        for (lcp, rows) in live.iter_mut().enumerate().take(bit_len + 1) {
            let capped = match esp {
                Some(esp) if lcp < bit_len => lcp.min(esp),
                _ => lcp,
            };
            *rows = (capped + 1).min(bit_len) as u8;
        }
        debug_assert!(
            bounds.first().is_none_or(|b| b.0 == 0)
                && bounds.windows(2).all(|w| w[0].1 == w[1].0)
                && bounds.last().map_or(0, |b| b.1 as usize) == entries.len(),
            "batches must tile the subarray's ranks"
        );
        let n = bounds.len();
        let first = usize::from(live[0]);
        let mut hist = [0u32; 65];
        hist[first] = n as u32;
        Self {
            entries,
            bounds,
            raw: vec![0; n],
            live,
            hist,
            mask: if n > 0 { bucket_bit(first) } else { 0 },
            sum_live: (n * first) as u64,
            bit_len,
            ins: 0,
            batch: 0,
            last: None,
        }
    }

    /// Moves the state to the query with packed bits `key`.
    fn advance(&mut self, key: u64) {
        let shared = match self.last {
            Some(prev) => engine::lcp_bits_u64_swar(prev, key, self.bit_len),
            None => 0,
        };
        if shared == self.bit_len {
            // A repeated key changes nothing.
            return;
        }
        // The galloping search and the batch cursor resume from the last
        // query, which the plan's sort order makes the nearest below.
        debug_assert!(
            self.last.is_none_or(|prev| prev <= key),
            "Type-1 task queries must arrive sorted"
        );
        self.last = Some(key);
        self.ins = engine::lower_bound_from(self.entries, self.ins, key);
        let n = self.bounds.len();
        while self.batch < n && self.bounds[self.batch].1 as usize <= self.ins {
            self.batch += 1;
        }
        if n == 0 {
            return;
        }
        // The batches holding ranks `ins − 1` and `ins` (clamped): if any
        // batch shares `shared` bits with the query, one of them does.
        let hi = self.batch.min(n - 1);
        let lo = if self.ins > 0 && self.bounds[hi].0 as usize >= self.ins {
            hi - 1
        } else {
            hi
        };
        for c in lo..=hi {
            self.recompute(c, key);
        }
        // Extend the run while the *old* value reached `shared`.
        let mut c = lo;
        while c > 0 && usize::from(self.raw[c - 1]) >= shared {
            c -= 1;
            self.recompute(c, key);
        }
        let mut c = hi + 1;
        while c < n && usize::from(self.raw[c]) >= shared {
            self.recompute(c, key);
            c += 1;
        }
    }

    /// Sets batch `c`'s LCP against `key`: the batch's entries nearest the
    /// insertion point attain it (see [`engine::max_lcp_in_range`]).
    fn recompute(&mut self, c: usize, key: u64) {
        let (start, end) = (self.bounds[c].0 as usize, self.bounds[c].1 as usize);
        let left = self.ins.clamp(start + 1, end) - 1;
        let right = self.ins.clamp(start, end - 1);
        let lcp =
            |rank: usize| engine::lcp_bits_u64_swar(self.entries[rank].0.bits(), key, self.bit_len);
        let raw = lcp(left).max(lcp(right)) as u8;
        let old = usize::from(self.live[usize::from(self.raw[c])]);
        let new = usize::from(self.live[usize::from(raw)]);
        self.raw[c] = raw;
        if old != new {
            self.hist[old] -= 1;
            if self.hist[old] == 0 {
                self.mask &= !bucket_bit(old);
            }
            self.hist[new] += 1;
            self.mask |= bucket_bit(new);
            self.sum_live = self.sum_live - old as u64 + new as u64;
        }
    }

    /// Rows the current query activates: the deepest batch's live rows.
    fn rows_needed(&self) -> usize {
        (64 - self.mask.leading_zeros()) as usize
    }

    /// Streaming time of the current query. Row `t` streams `live(t)`
    /// batches (those live through more than `t` rows) and costs
    /// `max(tRCD + live(t)·tCCD + tRP, tRC)`. Summed over the rows, the
    /// first term gives `rows·(tRCD + tRP) + tCCD·sum_live`; the `tRC`
    /// floor adds only on the deepest rows, where few batches are live,
    /// so the walk below visits a handful of histogram buckets from the
    /// top and stops at the first row that streams past the floor.
    fn stream_time(&self, timing: &sieve_dram::TimingParams) -> TimePs {
        let base = timing.t_rcd + timing.t_rp;
        let row_cycle = timing.row_cycle();
        let mut time = self.rows_needed() as u64 * base + self.sum_live * timing.t_ccd;
        let mut rest = self.mask;
        let mut live = 0u64;
        while rest != 0 {
            let top = (64 - rest.leading_zeros()) as usize;
            rest &= !bucket_bit(top);
            live += u64::from(self.hist[top]);
            let stream = base + live * timing.t_ccd;
            if stream >= row_cycle {
                break;
            }
            // Rows `next..top` stream exactly `live` batches.
            let next = (64 - rest.leading_zeros()) as u64;
            time += (top as u64 - next) * (row_cycle - stream);
        }
        time
    }
}

/// Accounts one task of Type-1 queries against its subarray.
///
/// `work` / `pairs` are in *match space* — unique k-mers when the device
/// deduplicates, raw queries otherwise — and `mult` carries each entry's
/// occurrence count (`None` = all 1). `pairs` is the task's slice of the
/// plan's sorted `(bits, id)` array. Every per-query quantity (stream
/// time, reads, activations, energies) is a pure function of the k-mer,
/// so charging it `mult` times is exact, not an approximation.
///
/// With ETM on, the per-batch LCPs live in a [`BatchEtm`] that each
/// query updates in O(changed batches); without it every non-empty batch
/// streams on every row, so the per-query cost is one constant.
fn type1_task(
    config: &SieveConfig,
    layout: &DeviceLayout,
    work: &[QueryWork],
    mult: Option<&[u32]>,
    subarray: usize,
    pairs: &[radix::Pair],
) -> Type1Partial {
    let comp = ComponentEnergies::paper();
    let timing = &config.timing;
    let bit_len = config.region1_rows() as usize;
    let batch_bits = 64u32;
    let batches_per_row = config.geometry.cols_per_row / batch_bits;

    let sa = layout.subarray(subarray);
    let bounds: Vec<(u32, u32)> = (0..batches_per_row)
        .map(|b| sa.ranks_in_cols(b * batch_bits, (b + 1) * batch_bits))
        .filter(|r| !r.is_empty())
        .map(|r| (r.start as u32, r.end as u32))
        .collect();
    // Without skip bits every non-empty batch streams on all 2k rows.
    let batches = bounds.len() as u64;
    let flat = (bit_len as u64, batches * bit_len as u64, {
        let stream = timing.t_rcd + batches * timing.t_ccd + timing.t_rp;
        bit_len as u64 * stream.max(timing.row_cycle())
    });
    let mut etm = config.etm_enabled.then(|| {
        BatchEtm::new(
            sa.entries(),
            bounds,
            bit_len,
            config.esp_override.map(|esp| esp as usize),
        )
    });

    let mut p = Type1Partial {
        subarray,
        ..Type1Partial::default()
    };
    for &pair in pairs {
        let i = pair.id() as usize;
        let m = mult.map_or(1u64, |m| u64::from(m[i]));
        let (rows_needed, mut query_reads, mut query_time) = match etm.as_mut() {
            Some(etm) => {
                etm.advance(pair.key());
                (
                    etm.rows_needed() as u64,
                    etm.sum_live,
                    etm.stream_time(timing),
                )
            }
            None => flat,
        };
        if work[i].hit {
            query_time += payload_time(config);
            query_reads += 2;
            p.row_activations += 2 * m;
            p.activation_fj += u128::from(2 * m) * u128::from(config.energy.e_act);
        }
        p.row_activations += rows_needed * m;
        p.read_bursts += query_reads * m;
        p.activation_fj += u128::from(rows_needed * m) * u128::from(config.energy.e_act);
        p.read_fj += u128::from(query_reads * m) * u128::from(config.energy.e_rd);
        // Matcher array + registers + SRAM buffer per batch comparison.
        p.component_fj += u128::from(query_reads * m) * u128::from(comp.t1_batch_fj);
        p.busy += query_time * m;
    }
    p
}

/// Schedules Type-1 work: per-bank serial matcher array, batch-granular
/// ETM. The plan's tasks fan out over worker threads; the reduce below
/// only sums integers per bank, so the report is bit-identical for any
/// `threads` and for any shard → task split.
///
/// `work` / `mult` are in match space (see [`type1_task`]);
/// `total_queries` / `total_hits` are the *expanded* batch totals.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_type1(
    config: &SieveConfig,
    layout: &DeviceLayout,
    work: &[QueryWork],
    mult: Option<&[u32]>,
    plan: &ShardPlan,
    pairs: &[radix::Pair],
    threads: usize,
    total_queries: u64,
    total_hits: u64,
) -> SimReport {
    let banks = config.geometry.total_banks();
    let partials = par::map_indexed(threads, plan.task_count(), |t| {
        let (subarray, range) = plan.task(t);
        type1_task(config, layout, work, mult, subarray, &pairs[range])
    });

    let tr = trace::global();
    if tr.is_enabled() {
        // Per-task Type-1 streaming intervals, in plan-task order (the
        // partials come back from map_indexed indexed by task id).
        let ts = tr.model_ps();
        for p in &partials {
            tr.emit_model(
                "t1.stream",
                p.subarray as u32,
                ts,
                p.busy,
                p.row_activations,
                p.read_bursts,
            );
        }
    }

    let mut energy = EnergyLedger::new();
    let mut row_activations = 0u64;
    let mut read_bursts = 0u64;
    let mut bank_busy = vec![0u64; banks];
    for p in &partials {
        bank_busy[p.subarray % banks] += p.busy;
        row_activations += p.row_activations;
        read_bursts += p.read_bursts;
        energy.activation_fj += p.activation_fj;
        energy.read_fj += p.read_fj;
        energy.component_fj += p.component_fj;
    }

    let ideal = bank_busy
        .into_iter()
        .map(|b| config.timing.with_refresh(b))
        .max()
        .unwrap_or(0);
    finalize(
        config,
        energy,
        ideal,
        ideal,
        RunTotals {
            queries: total_queries,
            hits: total_hits,
            row_activations,
            write_bursts: 0,
            read_bursts,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SieveDevice;
    use crate::layout::DeviceLayout;
    use sieve_dram::Geometry;
    use sieve_genomics::{synth, Kmer};

    fn dataset() -> synth::SyntheticDataset {
        synth::make_dataset_with(8, 2048, 31, 77)
    }

    fn queries(ds: &synth::SyntheticDataset, n: usize) -> Vec<Kmer> {
        let (reads, _) = synth::simulate_reads(ds, synth::ReadSimConfig::default(), n, 9);
        reads
            .iter()
            .flat_map(|r| r.kmers(31).map(|(_, k)| k))
            .collect()
    }

    fn run(config: SieveConfig, ds: &synth::SyntheticDataset, qs: &[Kmer]) -> SimReport {
        SieveDevice::new(
            config.with_geometry(Geometry::scaled_medium()),
            ds.entries.clone(),
        )
        .unwrap()
        .run(qs)
        .unwrap()
        .report
    }

    #[test]
    fn type3_salp_speeds_up_until_plateau() {
        let ds = dataset();
        let qs = queries(&ds, 60);
        let t1sa = run(SieveConfig::type3(1), &ds, &qs);
        let t4sa = run(SieveConfig::type3(4), &ds, &qs);
        let t64sa = run(SieveConfig::type3(64), &ds, &qs);
        assert!(t4sa.makespan_ps <= t1sa.makespan_ps);
        assert!(t64sa.makespan_ps <= t4sa.makespan_ps);
        // Energy is (nearly) independent of SALP.
        let e1 = t1sa.energy.total_fj() as f64;
        let e64 = t64sa.energy.total_fj() as f64;
        assert!((e1 - e64).abs() / e1 < 0.5);
    }

    #[test]
    fn type2_more_buffers_is_faster() {
        let ds = dataset();
        let qs = queries(&ds, 60);
        let cb1 = run(SieveConfig::type2(1), &ds, &qs);
        let cb16 = run(SieveConfig::type2(16), &ds, &qs);
        let cb64 = run(SieveConfig::type2(64), &ds, &qs);
        assert!(cb16.makespan_ps <= cb1.makespan_ps);
        assert!(cb64.makespan_ps <= cb16.makespan_ps);
    }

    #[test]
    fn type2_trails_type3_via_hop_delay() {
        let ds = dataset();
        let qs = queries(&ds, 60);
        let t2max = run(SieveConfig::type2(64), &ds, &qs);
        let t3 = run(SieveConfig::type3(64), &ds, &qs);
        assert!(
            t2max.makespan_ps > t3.makespan_ps,
            "T2 must pay at least one hop per activation"
        );
    }

    #[test]
    fn type1_is_slowest_design() {
        let ds = dataset();
        let qs = queries(&ds, 40);
        let t1 = run(SieveConfig::type1(), &ds, &qs);
        let t3 = run(SieveConfig::type3(8), &ds, &qs);
        assert!(t1.makespan_ps > t3.makespan_ps);
        // But Type-1 spends less component energy per query than T2/3
        // spend on matchers (the paper's energy-efficiency observation
        // holds at the whole-ledger level below).
        assert!(t1.queries == t3.queries);
    }

    #[test]
    fn type1_etm_prunes_reads_and_rows() {
        let ds = dataset();
        let qs = queries(&ds, 40);
        let with = run(SieveConfig::type1(), &ds, &qs);
        let without = run(SieveConfig::type1().with_etm(false), &ds, &qs);
        assert!(with.row_activations < without.row_activations);
        assert!(with.read_bursts < without.read_bursts);
        assert!(with.makespan_ps < without.makespan_ps);
    }

    #[test]
    fn pcie_adds_bounded_overhead() {
        let ds = dataset();
        let qs = queries(&ds, 60);
        let ideal = run(SieveConfig::type3(8), &ds, &qs);
        let with_pcie = run(
            SieveConfig::type3(8).with_pcie(crate::pcie::PcieConfig::gen4_x16()),
            &ds,
            &qs,
        );
        assert!(with_pcie.makespan_ps >= ideal.makespan_ps);
        assert_eq!(with_pcie.ideal_makespan_ps, ideal.makespan_ps);
        assert!(with_pcie.transport_overhead() >= 0.0);
    }

    #[test]
    fn write_bursts_match_batch_formula() {
        let ds = dataset();
        let qs = queries(&ds, 10);
        let report = run(SieveConfig::type3(8), &ds, &qs);
        // Every batch of ≤64 queries per subarray costs 868 writes.
        assert_eq!(report.write_bursts % 868, 0);
        assert!(report.write_bursts > 0);
    }

    /// The per-query Type-1 accounting the incremental [`BatchEtm`]
    /// replaced, kept as its oracle: one binary search per batch
    /// ([`engine::max_lcp_in_range`]), a fresh live-row histogram per
    /// query, and the row-by-row stream sum.
    fn type1_task_reference(
        config: &SieveConfig,
        layout: &DeviceLayout,
        queries: &[Kmer],
        work: &[QueryWork],
        mult: Option<&[u32]>,
        subarray: usize,
        pairs: &[radix::Pair],
    ) -> Type1Partial {
        let comp = ComponentEnergies::paper();
        let timing = &config.timing;
        let row_cycle = timing.row_cycle();
        let bit_len = config.region1_rows() as usize;
        let batch_bits = 64u32;
        let batches_per_row = (config.geometry.cols_per_row / batch_bits) as usize;

        let sa = layout.subarray(subarray);
        let ranges: Vec<std::ops::Range<usize>> = (0..batches_per_row)
            .map(|b| sa.ranks_in_cols(b as u32 * batch_bits, (b as u32 + 1) * batch_bits))
            .collect();

        let mut p = Type1Partial {
            subarray,
            ..Type1Partial::default()
        };
        let mut alive_rows_hist = vec![0u32; bit_len + 1];
        let mut live_suffix = vec![0u32; bit_len + 2];
        for &pair in pairs {
            let i = pair.id();
            let q = &queries[i as usize];
            let w = &work[i as usize];
            let m = mult.map_or(1u64, |m| u64::from(m[i as usize]));
            alive_rows_hist.fill(0);
            let mut rows_needed = 0usize;
            for range in &ranges {
                if let Some(mut lcp) = engine::max_lcp_in_range(&sa, range.clone(), *q) {
                    if let Some(esp) = config.esp_override {
                        if lcp < bit_len {
                            lcp = lcp.min(esp as usize);
                        }
                    }
                    let live_rows = (lcp + 1).min(bit_len);
                    alive_rows_hist[live_rows] += 1;
                    rows_needed = rows_needed.max(live_rows);
                }
            }
            if !config.etm_enabled {
                rows_needed = bit_len;
            }
            live_suffix[bit_len + 1] = 0;
            for d in (0..=bit_len).rev() {
                live_suffix[d] = live_suffix[d + 1] + alive_rows_hist[d];
            }
            let mut query_time = 0u64;
            let mut query_reads = 0u64;
            for t in 0..rows_needed {
                let live = if config.etm_enabled {
                    u64::from(live_suffix[t + 1])
                } else {
                    u64::from(live_suffix[0])
                };
                let stream = timing.t_rcd + live * timing.t_ccd + timing.t_rp;
                query_time += stream.max(row_cycle);
                query_reads += live;
            }
            if w.hit {
                query_time += payload_time(config);
                query_reads += 2;
                p.row_activations += 2 * m;
                p.activation_fj += u128::from(2 * m) * u128::from(config.energy.e_act);
            }
            p.row_activations += rows_needed as u64 * m;
            p.read_bursts += query_reads * m;
            p.activation_fj +=
                rows_needed as u128 * u128::from(m) * u128::from(config.energy.e_act);
            p.read_fj += u128::from(query_reads * m) * u128::from(config.energy.e_rd);
            p.component_fj += u128::from(query_reads * m) * u128::from(comp.t1_batch_fj);
            p.busy += query_time * m;
        }
        p
    }

    /// An adversarial query stream against one subarray, as packed keys:
    /// every non-empty batch's first and last key and their ±1
    /// neighbours, keys below the first entry and above the last, deep
    /// near-misses (one low bit flipped), seeded random keys, and runs of
    /// duplicates.
    fn adversarial_keys(layout: &DeviceLayout, subarray: usize, bit_len: usize) -> Vec<u64> {
        let sa = layout.subarray(subarray);
        let entries = sa.entries();
        let mask = u64::MAX >> (64 - bit_len);
        let bits = |rank: usize| entries[rank].0.bits();
        let mut keys = vec![0, mask, bits(0).saturating_sub(1), bits(sa.len() - 1) + 1];
        for b in 0..128u32 {
            let r = sa.ranks_in_cols(b * 64, (b + 1) * 64);
            if r.is_empty() {
                continue;
            }
            let (first, last) = (bits(r.start), bits(r.end - 1));
            keys.extend([first, first.saturating_sub(1), last, last + 1, last]);
        }
        for rank in (0..sa.len()).step_by(97) {
            keys.extend([bits(rank) ^ 1, bits(rank) ^ 2, bits(rank) ^ (1 << 9)]);
            keys.extend(std::iter::repeat_n(bits(rank), rank % 4));
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ subarray as u64;
        for _ in 0..300 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            keys.push(state >> (64 - bit_len));
        }
        keys.extend(std::iter::repeat_n(keys[keys.len() - 1], 5));
        keys.iter().map(|&k| k & mask).collect()
    }

    /// Runs both Type-1 task kernels over each occupied subarray's
    /// adversarial keys, sorted as the plan delivers them, and asserts
    /// equal partials.
    fn assert_type1_kernels_agree(config: &SieveConfig, layout: &DeviceLayout, label: &str) {
        let bit_len = config.region1_rows() as usize;
        for subarray in 0..layout.occupied_subarrays() {
            let mut keys = adversarial_keys(layout, subarray, bit_len);
            keys.sort_unstable();
            let sa = layout.subarray(subarray);
            let queries: Vec<Kmer> = keys
                .iter()
                .map(|&k| Kmer::from_u64(k, config.k).unwrap())
                .collect();
            let work: Vec<QueryWork> = keys
                .iter()
                .map(|&k| QueryWork {
                    hit: sa
                        .entries()
                        .binary_search_by_key(&k, |(e, _)| e.bits())
                        .is_ok(),
                })
                .collect();
            let mult: Vec<u32> = (0..keys.len() as u32).map(|i| i % 5 + 1).collect();
            let pairs: Vec<radix::Pair> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| radix::Pair::new(k, i as u32))
                .collect();
            for m in [None, Some(mult.as_slice())] {
                let fast = type1_task(config, layout, &work, m, subarray, &pairs);
                let slow =
                    type1_task_reference(config, layout, &queries, &work, m, subarray, &pairs);
                assert_eq!(
                    fast,
                    slow,
                    "{label}: subarray {subarray}, mult {}",
                    m.is_some()
                );
            }
        }
    }

    #[test]
    fn type1_incremental_kernel_matches_per_batch_search() {
        for k in [15usize, 31, 32] {
            let ds = synth::make_dataset_with(8, 2048, k, 41);
            let configs = [
                ("etm", SieveConfig::type1()),
                ("etm-off", SieveConfig::type1().with_etm(false)),
                ("esp10", SieveConfig::type1().with_esp_override(10)),
                ("esp0", SieveConfig::type1().with_esp_override(0)),
                (
                    "etm-off-esp4",
                    SieveConfig::type1().with_etm(false).with_esp_override(4),
                ),
            ];
            for (label, config) in configs {
                let config = config.with_k(k).with_geometry(Geometry::scaled_medium());
                let layout = DeviceLayout::build(ds.entries.clone(), &config).unwrap();
                let last = layout.subarray(layout.occupied_subarrays() - 1);
                assert!(
                    last.len() < layout.refs_per_subarray() as usize,
                    "the last subarray must be partly filled"
                );
                assert_type1_kernels_agree(&config, &layout, &format!("k={k} {label}"));
            }
        }
    }

    #[test]
    fn lpt_makespan_basics() {
        assert_eq!(lpt_makespan(vec![], 4), 0);
        assert_eq!(lpt_makespan(vec![10, 10, 10, 10], 2), 20);
        assert_eq!(lpt_makespan(vec![40, 10, 10, 10], 2), 40);
        assert_eq!(lpt_makespan(vec![5], 8), 5);
    }
}
