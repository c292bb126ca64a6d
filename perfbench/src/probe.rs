//! Per-layer probes for the traced run. Each one times calls into a
//! layer's public functions from outside the program; none reads the
//! program's own telemetry.

use std::hint::black_box;
use std::time::Instant;

use sieve_core::engine::MergeCursor;
use sieve_core::etm::RowTable;
use sieve_core::{vote_reads, HostPipeline, ReadResult, SieveDevice, SieveError, SimReport};
use sieve_genomics::{DnaSequence, Kmer};

use crate::workload::{Input, Shape, Workload, K};

/// A call replayed as its separate steps: extraction
/// (`HostPipeline::extract_kmers`), an uncached device run
/// (`SieveDevice::run`) and the vote (`vote_reads`). A streamed call is
/// replayed chunk by chunk, serially, and its step times summed.
pub struct Decomposed {
    pub extract_s: f64,
    pub run_s: f64,
    pub vote_s: f64,
    /// Every k-mer the call extracted, in order.
    pub kmers: Vec<Kmer>,
    pub reads: Vec<ReadResult>,
    pub report: Option<SimReport>,
}

pub fn decomposed(
    w: &Workload,
    host: &HostPipeline,
    input: &Input,
) -> Result<Decomposed, SieveError> {
    let mut d = Decomposed {
        extract_s: 0.0,
        run_s: 0.0,
        vote_s: 0.0,
        kmers: Vec::new(),
        reads: Vec::with_capacity(input.reads()),
        report: None,
    };
    match (w.shape, input) {
        (Shape::Batch { .. }, Input::Reads(reads)) => {
            let t = Instant::now();
            let (kmers, owners) = host.extract_kmers(black_box(reads));
            d.extract_s += t.elapsed().as_secs_f64();
            d.step(host, reads.len(), kmers, &owners)?;
        }
        (Shape::Stream { chunk, .. }, Input::Reads(reads)) => {
            for part in reads.chunks(chunk) {
                let t = Instant::now();
                let (kmers, owners) = host.extract_kmers(black_box(part));
                d.extract_s += t.elapsed().as_secs_f64();
                d.step(host, part.len(), kmers, &owners)?;
            }
        }
        (Shape::Pairs { .. }, Input::Pairs(pairs)) => {
            // As `classify_pairs` does: mate 2 is reverse-complemented
            // and both mates' k-mers are owned by the pair.
            let t = Instant::now();
            let mates: Vec<DnaSequence> = pairs
                .iter()
                .flat_map(|(m1, m2)| [m1.clone(), m2.reverse_complement()])
                .collect();
            let (kmers, mut owners) = host.extract_kmers(black_box(&mates));
            for owner in &mut owners {
                *owner >>= 1;
            }
            d.extract_s += t.elapsed().as_secs_f64();
            d.step(host, pairs.len(), kmers, &owners)?;
        }
        _ => unreachable!("inputs are generated from the workload's own shape"),
    }
    Ok(d)
}

impl Decomposed {
    fn step(
        &mut self,
        host: &HostPipeline,
        n_reads: usize,
        kmers: Vec<Kmer>,
        owners: &[u32],
    ) -> Result<(), SieveError> {
        let t = Instant::now();
        let run = host.device().run(black_box(&kmers))?;
        self.run_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let voted = vote_reads(
            n_reads,
            black_box(owners),
            &run.results,
            host.device().config().host_kernels,
        );
        self.vote_s += t.elapsed().as_secs_f64();
        self.reads.extend(voted);
        self.kmers.extend_from_slice(&kmers);
        match &mut self.report {
            None => self.report = Some(run.report),
            Some(merged) => merged.accumulate(&run.report),
        }
        Ok(())
    }
}

/// Times the match engine alone: `distinct` (sorted, distinct k-mers) is
/// grouped by `SubarrayIndex::locate` outside the timed interval, then
/// each group is pushed through `MergeCursor::lookup_block` against its
/// subarray. Returns the seconds taken and the number of hits.
pub fn engine_lookup(device: &SieveDevice, distinct: &[Kmer]) -> (f64, usize) {
    let Some(index) = device.index() else {
        return (0.0, 0);
    };
    let config = device.config();
    let table = RowTable::new(2 * K, config.etm_enabled, config.etm_flush_cycles);
    let keys: Vec<u64> = distinct.iter().map(Kmer::bits).collect();
    // Sorted keys route to non-decreasing subarrays: consecutive runs.
    let mut groups: Vec<(usize, usize, usize)> = Vec::new();
    for (i, &kmer) in distinct.iter().enumerate() {
        let sa = index.locate(kmer);
        match groups.last_mut() {
            Some((last, _, end)) if *last == sa => *end = i + 1,
            _ => groups.push((sa, i, i + 1)),
        }
    }
    let mut out = Vec::with_capacity(keys.len());
    let t = Instant::now();
    for &(sa, lo, hi) in &groups {
        let mut cursor = MergeCursor::new(device.layout().subarray(sa));
        cursor.lookup_block(black_box(&keys[lo..hi]), &table, &mut out);
    }
    let secs = t.elapsed().as_secs_f64();
    (secs, out.iter().filter(|o| o.hit.is_some()).count())
}

/// Times `SieveDevice::run` over the same k-mers on a Type-1 and a
/// Type-3 device holding the same reference. Returns both times, and
/// whether the two designs returned the same per-query results.
pub fn sched(
    type1: &SieveDevice,
    type3: &SieveDevice,
    sample: &[Kmer],
) -> Result<(f64, f64, bool), SieveError> {
    let t = Instant::now();
    let a = type1.run(black_box(sample))?;
    let t1 = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let b = type3.run(black_box(sample))?;
    let t3 = t.elapsed().as_secs_f64();
    Ok((t1, t3, a.results == b.results))
}
