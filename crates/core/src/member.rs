//! Static exact-match index of the reference set.
//!
//! The paper charges every hit the same modeled cost: a full Region-1
//! sweep (`2k` rows plus flush) in the subarray that stores the k-mer,
//! then the payload rows. A hit's whole outcome — destination subarray,
//! rows activated, payload — is therefore a function of the reference
//! alone, and the host can resolve it without sorting, routing or
//! matching the query. [`MemberIndex`] answers that membership question
//! from a structure sized to fit a core's L2 cache, in the spirit of
//! exact-match accelerators such as EXMA (PAPERS.md): a radix directory
//! over the top `⌈log₂ n⌉` key bits, holding `u32` rank offsets into a
//! compact sorted `u64` key array, plus one `u32` taxon per key (16–20
//! bytes per reference k-mer all told).
//!
//! The index is immutable and built once per device from
//! [`crate::layout::DeviceLayout::entries`], so a probe's answer never
//! depends on what the device has seen before. A key's rank in the index
//! is its rank in the layout, which is what lets the device charge a
//! member hit to subarray `rank / refs_per_subarray`.

use sieve_genomics::{Kmer, TaxonId};

/// Strided sample size per batch for the engagement decision.
const ENGAGE_SAMPLE: usize = 1024;
/// Engage when at least 1/`ENGAGE_DIVISOR` of the sample hits. Probing
/// costs every query one index lookup and saves each hit its sort, route
/// and match. On 500-read chunks of 150 bp reads with 0.5–2 %
/// substitution errors (one thread, 2 MiB L2 Xeon), engaged and vetoed
/// runs cost the same at a hit rate between 42 and 59 %: the probe takes
/// ≈ 25–35 ns per query (the index is L2-sized but the batch's own
/// buffers push it towards L3) against ≈ 40–65 ns of sort + match saved
/// per hit.
const ENGAGE_DIVISOR: usize = 2;

/// Immutable exact-match index over a sorted, distinct reference set.
#[derive(Debug, Clone)]
pub(crate) struct MemberIndex {
    /// `dir[b]..dir[b + 1]` is the rank range of keys whose top bits
    /// equal `b`; `2^bits + 1` entries.
    dir: Vec<u32>,
    /// The reference keys, ascending (rank order).
    keys: Vec<u64>,
    /// Payload per rank.
    taxa: Vec<TaxonId>,
    /// `bit_len - bits`: the directory bucket of `key` is `key >> shift`.
    /// At least one directory bit is kept, so the shift stays below 64
    /// even for `k = 32`.
    shift: u32,
}

impl MemberIndex {
    /// Builds the index over `entries`, which must be sorted by key and
    /// distinct (as [`crate::layout::DeviceLayout::entries`] are), all of
    /// `bit_len = 2k` bits.
    ///
    /// # Panics
    ///
    /// Panics if `entries` holds more than `u32::MAX` keys or `bit_len`
    /// is 0 or above 64.
    pub fn build(entries: &[(Kmer, TaxonId)], bit_len: usize) -> Self {
        assert!(
            (1..=64).contains(&bit_len),
            "bit_len {bit_len} out of range"
        );
        let n = u32::try_from(entries.len()).expect("reference exceeds u32 ranks");
        debug_assert!(entries.windows(2).all(|w| w[0].0.bits() < w[1].0.bits()));
        // One bucket per key on average: 2^⌈log₂ n⌉ buckets, at least 2.
        let bits = n
            .max(2)
            .next_power_of_two()
            .trailing_zeros()
            .min(bit_len as u32);
        let shift = bit_len as u32 - bits;
        let mut dir = vec![0u32; (1usize << bits) + 1];
        for (kmer, _) in entries {
            dir[(kmer.bits() >> shift) as usize + 1] += 1;
        }
        for b in 1..dir.len() {
            dir[b] += dir[b - 1];
        }
        Self {
            dir,
            keys: entries.iter().map(|(k, _)| k.bits()).collect(),
            taxa: entries.iter().map(|&(_, t)| t).collect(),
            shift,
        }
    }

    /// The rank and payload of `key`, if it is a reference k-mer.
    #[inline]
    pub fn get(&self, key: u64) -> Option<(u32, TaxonId)> {
        let top = (key >> self.shift) as usize;
        let (&lo, &hi) = (self.dir.get(top)?, self.dir.get(top + 1)?);
        let i = lo as usize
            + self.keys[lo as usize..hi as usize]
                .binary_search(&key)
                .ok()?;
        Some((i as u32, self.taxa[i]))
    }

    /// Whether a batch should probe the index at all, from a strided
    /// sample of (at most) [`ENGAGE_SAMPLE`] of its keys: probing every
    /// query only pays when enough of them hit and so skip the sort and
    /// match. A pure function of the batch, so engagement — like every
    /// output — is independent of the thread count and of earlier runs.
    pub fn engages(&self, queries: &[Kmer]) -> bool {
        let stride = (queries.len() / ENGAGE_SAMPLE).max(1);
        let sample = queries.iter().step_by(stride).take(ENGAGE_SAMPLE);
        let (sampled, hits) = sample.fold((0usize, 0usize), |(n, h), q| {
            (n + 1, h + usize::from(self.get(q.bits()).is_some()))
        });
        sampled > 0 && hits * ENGAGE_DIVISOR >= sampled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_genomics::db::{KmerDatabase, SortedDb};

    /// Every probe must agree with the sorted-database oracle on both
    /// membership and rank.
    fn assert_matches_sorted_db(entries: Vec<(Kmer, TaxonId)>, k: usize, probes: &[u64]) {
        let db = SortedDb::from_entries(entries, k);
        let index = MemberIndex::build(db.entries(), 2 * k);
        for &bits in probes {
            let kmer = Kmer::from_u64(bits, k).unwrap();
            let got = index.get(bits);
            assert_eq!(got.map(|(_, t)| t), db.get(kmer), "k={k} key {bits:#x}");
            assert_eq!(
                got.map(|(r, _)| r as usize),
                db.find(kmer).ok(),
                "k={k} key {bits:#x}: rank"
            );
        }
    }

    fn entries_of(keys: &[u64], k: usize) -> Vec<(Kmer, TaxonId)> {
        keys.iter()
            .enumerate()
            .map(|(i, &b)| (Kmer::from_u64(b, k).unwrap(), TaxonId(i as u32 % 7 + 1)))
            .collect()
    }

    /// Each key, its ±1 neighbours (clamped to the key space), and the
    /// extremes of the key space.
    fn probes_around(keys: &[u64], k: usize) -> Vec<u64> {
        let max = if k == 32 {
            u64::MAX
        } else {
            (1u64 << (2 * k)) - 1
        };
        let mut probes = vec![0, 1, max - 1, max];
        for &key in keys {
            probes.extend([key.saturating_sub(1), key, key.saturating_add(1).min(max)]);
        }
        probes
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn get_matches_sorted_db_on_adversarial_references() {
        for k in [1usize, 2, 15, 31, 32] {
            let max = if k == 32 {
                u64::MAX
            } else {
                (1u64 << (2 * k)) - 1
            };
            let mut state = 0x9E37_79B9_7F4A_7C15 ^ k as u64;
            let random: Vec<u64> = (0..3_000).map(|_| xorshift(&mut state) & max).collect();
            let mut skewed: Vec<u64> = if k >= 15 {
                (0..2_000u64).map(|i| (max >> 1) - 4_000 + 2 * i).collect()
            } else {
                Vec::new()
            };
            skewed.extend([0, max]);
            let references: [Vec<u64>; 7] = [
                Vec::new(),
                vec![max / 3],
                vec![0, max],
                // All-ones top bits: the last directory bucket, read
                // through `dir[top + 1]`.
                vec![max - 2, max - 1, max],
                vec![1, 2, 3, max / 2, max / 2 + 1],
                random,
                // Most keys packed into one directory bucket.
                skewed,
            ];
            for keys in references {
                let entries = entries_of(&keys, k);
                let mut probes = probes_around(&keys, k);
                probes.extend((0..500).map(|_| xorshift(&mut state) & max));
                assert_matches_sorted_db(entries, k, &probes);
            }
        }
    }

    #[test]
    fn engagement_follows_the_sampled_hit_rate() {
        let ds = sieve_genomics::synth::make_dataset_with(4, 2048, 31, 9);
        let db = SortedDb::from_entries(ds.entries, 31);
        let index = MemberIndex::build(db.entries(), 62);
        let hit = |i: usize| db.entries()[i].0;
        let misses: Vec<Kmer> = (1..)
            .map(|i: u64| Kmer::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 2, 31).unwrap())
            .filter(|&k| index.get(k.bits()).is_none())
            .take(4_096)
            .collect();
        let miss = |i: usize| misses[i];
        // Below the sample size every key is sampled: half hitting engages.
        let batch = |hits: usize| -> Vec<Kmer> {
            (0..1_000)
                .map(|i| if i < hits { hit(i) } else { miss(i) })
                .collect()
        };
        assert!(index.engages(&batch(500)));
        assert!(!index.engages(&batch(499)));
        assert!(!index.engages(&[]));
        // Above it the sample is strided: only every 4th key of this
        // 4,096-key batch is looked at, and those all hit.
        let strided: Vec<Kmer> = (0..4_096)
            .map(|i| if i % 4 == 0 { hit(i) } else { miss(i) })
            .collect();
        assert!(index.engages(&strided));
        let rotated: Vec<Kmer> = (0..4_096)
            .map(|i| if i % 4 == 1 { hit(i) } else { miss(i) })
            .collect();
        assert!(!index.engages(&rotated));
    }

    #[test]
    fn directory_has_one_bucket_per_key() {
        let keys: Vec<u64> = (0..1_000u64).map(|i| i << 40).collect();
        let index = MemberIndex::build(&entries_of(&keys, 31), 62);
        assert_eq!(index.dir.len(), 1024 + 1);
        assert_eq!(index.shift, 62 - 10);
        // A single key still keeps one directory bit (shift < 64 at k = 32).
        let one = MemberIndex::build(&entries_of(&[u64::MAX], 32), 64);
        assert_eq!(one.shift, 63);
        assert_eq!(one.get(u64::MAX), Some((0, TaxonId(1))));
        assert_eq!(one.get(u64::MAX - 1), None);
    }
}
