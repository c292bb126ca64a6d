//! The independent oracle: per-read taxon calls from hash-table lookups
//! and a majority vote written here, plus the input-property counts
//! (`input.*`) taken from the generated reads, not from program counters.

use std::collections::{BTreeMap, VecDeque};

use sieve_core::ReadResult;
use sieve_genomics::db::{HashDb, KmerDatabase};
use sieve_genomics::{DnaSequence, Kmer, TaxonId};

use crate::workload::{Input, K};

/// How many earlier calls `input.cross_call_frac` looks back over.
pub const CROSS_CALL_WINDOW: usize = 4;

/// What a correct pipeline returns for one call, and the call's k-mers.
pub struct Expected {
    pub reads: Vec<ReadResult>,
    /// Every k-mer occurrence of the call, in read order.
    pub kmers: Vec<Kmer>,
    /// Occurrences that are in the reference.
    pub hits: usize,
}

pub struct Oracle {
    db: HashDb,
}

impl Oracle {
    pub fn new(entries: &[(Kmer, TaxonId)]) -> Self {
        Self {
            db: HashDb::from_entries(entries, K),
        }
    }

    /// Whether `kmer` is in the reference.
    pub fn contains(&self, kmer: Kmer) -> bool {
        self.db.get(kmer).is_some()
    }

    /// The expected per-read results: a read's k-mers (for a pair, mate 1
    /// then the reverse complement of mate 2) are looked up one by one and
    /// the taxon with the most hits wins, ties to the lowest taxon id.
    pub fn expect(&self, input: &Input) -> Expected {
        // Exact worst-case capacity: a grown vector's reallocation would
        // make the process's peak memory depend on heap layout.
        let windows = |s: &DnaSequence| (s.len() + 1).saturating_sub(K);
        let upper = match input {
            Input::Reads(reads) => reads.iter().map(windows).sum(),
            Input::Pairs(pairs) => pairs.iter().map(|(a, b)| windows(a) + windows(b)).sum(),
        };
        let mut out = Expected {
            reads: Vec::with_capacity(input.reads()),
            kmers: Vec::with_capacity(upper),
            hits: 0,
        };
        match input {
            Input::Reads(reads) => {
                for read in reads {
                    self.read(&[read], &mut out);
                }
            }
            Input::Pairs(pairs) => {
                for (m1, m2) in pairs {
                    self.read(&[m1, &m2.reverse_complement()], &mut out);
                }
            }
        }
        out
    }

    fn read(&self, mates: &[&DnaSequence], out: &mut Expected) {
        let mut votes: BTreeMap<TaxonId, usize> = BTreeMap::new();
        let mut total = 0;
        for mate in mates {
            for (_, kmer) in mate.kmers(K) {
                total += 1;
                out.kmers.push(kmer);
                if let Some(taxon) = self.db.get(kmer) {
                    *votes.entry(taxon).or_default() += 1;
                }
            }
        }
        let hit_kmers: usize = votes.values().sum();
        out.hits += hit_kmers;
        // Ascending taxon order with a strict comparison: ties keep the
        // lowest taxon id.
        let mut best: Option<(usize, TaxonId)> = None;
        for (&taxon, &count) in &votes {
            if best.is_none_or(|(c, _)| count > c) {
                best = Some((count, taxon));
            }
        }
        out.reads.push(ReadResult {
            taxon: best.map(|(_, t)| t),
            hit_kmers,
            total_kmers: total,
        });
    }
}

/// The call's distinct k-mers, sorted by their packed bits.
pub fn distinct_sorted(kmers: &[Kmer]) -> Vec<Kmer> {
    let mut distinct = kmers.to_vec();
    distinct.sort_unstable_by_key(Kmer::bits);
    distinct.dedup_by_key(|k| k.bits());
    distinct
}

/// Running totals of the input properties over a run's calls.
#[derive(Default)]
pub struct InputProps {
    reads: u64,
    kmers: u64,
    distinct: u64,
    cross_call: u64,
    hits: u64,
    /// Distinct sorted k-mer bits of the last [`CROSS_CALL_WINDOW`] calls.
    history: VecDeque<Vec<u64>>,
}

impl InputProps {
    /// Records one call: `distinct` is its distinct sorted k-mers. When
    /// `count` is false the call only enters the look-back history
    /// (warm-up calls precede the timed ones the shares describe).
    pub fn record(&mut self, expected: &Expected, distinct: &[Kmer], count: bool) {
        let bits: Vec<u64> = distinct.iter().map(Kmer::bits).collect();
        if count {
            self.reads += expected.reads.len() as u64;
            self.kmers += expected.kmers.len() as u64;
            self.distinct += bits.len() as u64;
            self.hits += expected.hits as u64;
            // Both sides are sorted: one merge pass per earlier call.
            let mut seen = vec![false; bits.len()];
            for earlier in &self.history {
                let mut j = 0;
                for (i, &b) in bits.iter().enumerate() {
                    while j < earlier.len() && earlier[j] < b {
                        j += 1;
                    }
                    seen[i] |= j < earlier.len() && earlier[j] == b;
                }
            }
            self.cross_call += seen.iter().filter(|&&s| s).count() as u64;
        }
        if self.history.len() == CROSS_CALL_WINDOW {
            self.history.pop_front();
        }
        self.history.push_back(bits);
    }

    pub fn kmers_per_read(&self) -> f64 {
        self.kmers as f64 / self.reads as f64
    }

    /// Share of k-mer occurrences that repeat an earlier one in the same call.
    pub fn dup_frac(&self) -> f64 {
        1.0 - self.distinct as f64 / self.kmers as f64
    }

    /// Share of k-mer occurrences that are new to their call but appeared
    /// in one of the previous [`CROSS_CALL_WINDOW`] calls.
    pub fn cross_call_frac(&self) -> f64 {
        self.cross_call as f64 / self.kmers as f64
    }

    /// Share of k-mer occurrences present in the reference.
    pub fn hit_frac(&self) -> f64 {
        self.hits as f64 / self.kmers as f64
    }
}
