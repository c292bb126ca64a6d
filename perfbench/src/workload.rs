//! The three workloads: reference shape, device design point, read
//! simulation parameters and call shape, plus seeded input generation.

use sieve_core::{HostPipeline, PipelineOutput, SieveConfig, SieveError};
use sieve_dram::Geometry;
use sieve_genomics::synth::{self, ReadSimConfig, SyntheticDataset};
use sieve_genomics::DnaSequence;

/// k-mer length of every workload (the paper's k).
pub const K: usize = 31;

/// Which Sieve design point a device models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// Area-optimised bank-I/O matcher array.
    Type1,
    /// Per-row-buffer matchers with 8-way subarray-level parallelism.
    Type3,
}

/// How one call hands its reads to the host pipeline.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// `classify_reads` on `reads` single-end reads.
    Batch { reads: usize },
    /// `classify_stream` on `reads` reads in `chunk`-read chunks.
    Stream { reads: usize, chunk: usize },
    /// `classify_pairs` on `pairs` read pairs drawn from `insert`-bp fragments.
    Pairs { pairs: usize, insert: usize },
}

/// One call's generated input.
pub enum Input {
    Reads(Vec<DnaSequence>),
    Pairs(Vec<(DnaSequence, DnaSequence)>),
}

impl Input {
    /// Reads in the call; a pair counts as one read.
    pub fn reads(&self) -> usize {
        match self {
            Input::Reads(r) => r.len(),
            Input::Pairs(p) => p.len(),
        }
    }
}

/// A benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub taxa: usize,
    pub genome_len: usize,
    pub design: Design,
    pub sim: ReadSimConfig,
    pub shape: Shape,
    /// Untimed calls before the first timed one (for `hot_stream`, these
    /// fill the device's hot-k-mer cache).
    pub warmup_calls: u64,
}

pub const NAMES: [&str; 3] = ["novel_batch", "hot_stream", "type1_pairs"];

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Self> {
        let w = match name {
            "novel_batch" => Self {
                name: "novel_batch",
                taxa: 16,
                genome_len: 8192,
                design: Design::Type3,
                sim: ReadSimConfig::default(),
                shape: Shape::Batch { reads: 10_000 },
                warmup_calls: 2,
            },
            "hot_stream" => Self {
                name: "hot_stream",
                taxa: 16,
                genome_len: 8192,
                design: Design::Type3,
                sim: ReadSimConfig {
                    read_len: 150,
                    from_reference: 0.9,
                    error_rate: 0.005,
                    n_rate: 0.001,
                },
                shape: Shape::Stream {
                    reads: 2_000,
                    chunk: 500,
                },
                warmup_calls: 8,
            },
            "type1_pairs" => Self {
                name: "type1_pairs",
                taxa: 64,
                genome_len: 8192,
                design: Design::Type1,
                sim: ReadSimConfig {
                    read_len: 100,
                    from_reference: 0.5,
                    error_rate: 0.01,
                    n_rate: 0.001,
                },
                shape: Shape::Pairs {
                    pairs: 250,
                    insert: 300,
                },
                warmup_calls: 2,
            },
            _ => return None,
        };
        Some(w)
    }

    /// The device configuration of `design`. The simulator runs one
    /// thread: on a small shared machine a second thread makes call times
    /// depend on the neighbours' load more than on the code.
    pub fn config(&self, design: Design) -> SieveConfig {
        let base = match design {
            Design::Type1 => SieveConfig::type1(),
            Design::Type3 => SieveConfig::type3(8),
        };
        base.with_geometry(Geometry::scaled_medium())
            .with_threads(1)
    }

    /// The reference dataset. It is fixed per workload, like a deployed
    /// database; the seed varies the reads sent to it.
    pub fn dataset(&self) -> SyntheticDataset {
        synth::make_dataset_with(self.taxa, self.genome_len, K, REFERENCE_SEED)
    }

    /// The input of call number `call` (warm-up calls included) for `seed`.
    /// Every call draws fresh reads; nothing is replayed from a pool.
    pub fn input(&self, dataset: &SyntheticDataset, seed: u64, call: u64) -> Input {
        let call_seed = mix(seed, call);
        match self.shape {
            Shape::Batch { reads } | Shape::Stream { reads, .. } => {
                Input::Reads(synth::simulate_reads(dataset, self.sim, reads, call_seed).0)
            }
            Shape::Pairs { pairs, insert } => Input::Pairs(
                synth::simulate_paired_reads(dataset, self.sim, insert, pairs, call_seed).0,
            ),
        }
    }

    /// The production call under test.
    pub fn call(&self, host: &HostPipeline, input: &Input) -> Result<PipelineOutput, SieveError> {
        match (self.shape, input) {
            (Shape::Batch { .. }, Input::Reads(reads)) => host.classify_reads(reads),
            (Shape::Stream { chunk, .. }, Input::Reads(reads)) => {
                host.classify_stream(reads, chunk)
            }
            (Shape::Pairs { .. }, Input::Pairs(pairs)) => host.classify_pairs(pairs),
            _ => unreachable!("inputs are generated from the workload's own shape"),
        }
    }
}

/// Seed of every workload's reference genomes.
const REFERENCE_SEED: u64 = 1001;

/// SplitMix64 of `seed` and a stream tag: an independent, reproducible
/// sub-seed for every call.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
