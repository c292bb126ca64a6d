//! Column-major data layout (§IV-A, Figure 7(e)).
//!
//! Reference k-mers are globally **sorted** and partitioned across
//! subarrays in order; within a subarray they are transposed onto bitlines,
//! organized in *pattern groups* of 576 columns: 256 reference columns, a
//! 64-column query block in the middle (Figure 7(e): BL256–BL319), then 256
//! more reference columns. Region 1 (rows 0..2k) holds the interleaved
//! reference/query bits; Region 2 holds 4-byte payload offsets; Region 3
//! holds payloads.
//!
//! Because the sorted order is laid out in increasing column order, every
//! ETM segment (a contiguous range of 256 columns) contains a
//! **contiguous, sorted range of references** — the property that lets the
//! fast engine compute per-segment and per-batch aliveness by binary search.

use sieve_genomics::{Kmer, TaxonId};

use crate::config::{DeviceKind, SieveConfig};
use crate::error::SieveError;

/// How reference and query columns share a pattern group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupShape {
    /// Total columns per group.
    pub cols: u32,
    /// Query-slot columns per group (0 for Type-1).
    pub query_cols: u32,
}

impl GroupShape {
    /// Reference columns per group.
    #[must_use]
    pub fn ref_cols(&self) -> u32 {
        self.cols - self.query_cols
    }

    /// Column (within the group) of the reference with in-group rank `r`.
    /// The query block sits in the middle (after the first half of the
    /// references), per Figure 7(e).
    #[must_use]
    pub fn col_of_rank(&self, r: u32) -> u32 {
        debug_assert!(r < self.ref_cols());
        let first_block = self.ref_cols() / 2;
        if r < first_block {
            r
        } else {
            r + self.query_cols
        }
    }

    /// Number of in-group references in columns before `c` (`c < cols`).
    #[must_use]
    fn ranks_before_col(&self, c: u32) -> u32 {
        debug_assert!(c < self.cols);
        let first_block = self.ref_cols() / 2;
        if c <= first_block {
            c
        } else {
            c.saturating_sub(self.query_cols).max(first_block)
        }
    }

    /// In-group reference rank at column `c`, or `None` for a query slot.
    #[must_use]
    pub fn rank_of_col(&self, c: u32) -> Option<u32> {
        debug_assert!(c < self.cols);
        let first_block = self.ref_cols() / 2;
        if c < first_block {
            Some(c)
        } else if c < first_block + self.query_cols {
            None
        } else {
            Some(c - self.query_cols)
        }
    }
}

/// The data layout of a whole device: sorted entries partitioned over
/// subarrays.
///
/// # Example
///
/// ```
/// use sieve_core::{DeviceLayout, SieveConfig};
/// use sieve_dram::Geometry;
/// use sieve_genomics::synth;
///
/// let dataset = synth::make_dataset_with(4, 2048, 31, 1);
/// let config = SieveConfig::type3(8).with_geometry(Geometry::scaled_medium());
/// let layout = DeviceLayout::build(dataset.entries.clone(), &config)?;
/// assert!(layout.occupied_subarrays() >= 1);
/// # Ok::<(), sieve_core::SieveError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DeviceLayout {
    entries: Vec<(Kmer, TaxonId)>,
    refs_per_subarray: u32,
    group: GroupShape,
    k: usize,
}

impl DeviceLayout {
    /// Partitions `entries` (sorted or not; sorted and deduplicated
    /// internally) across the device described by `config`.
    ///
    /// # Errors
    ///
    /// * [`SieveError::InvalidConfig`] if `config` is inconsistent;
    /// * [`SieveError::KMismatch`] if any entry's k differs from `config.k`;
    /// * [`SieveError::CapacityExceeded`] if the set does not fit.
    pub fn build(
        mut entries: Vec<(Kmer, TaxonId)>,
        config: &SieveConfig,
    ) -> Result<Self, SieveError> {
        config.validate()?;
        for (kmer, _) in &entries {
            if kmer.k() != config.k {
                return Err(SieveError::KMismatch {
                    expected: config.k,
                    actual: kmer.k(),
                });
            }
        }
        entries.sort_by_key(|(k, _)| k.bits());
        entries.dedup_by_key(|(k, _)| k.bits());
        if entries.len() > config.capacity_kmers() {
            return Err(SieveError::CapacityExceeded {
                needed_kmers: entries.len(),
                capacity_kmers: config.capacity_kmers(),
            });
        }
        let query_cols = match config.device {
            DeviceKind::Type1 => 0,
            _ => config.queries_per_group,
        };
        let group_cols = match config.device {
            // Type-1 has no pattern groups; model the whole row as one
            // group of reference columns.
            DeviceKind::Type1 => config.geometry.cols_per_row,
            _ => config.pattern_group_cols,
        };
        Ok(Self {
            entries,
            refs_per_subarray: config.refs_per_subarray(),
            group: GroupShape {
                cols: group_cols,
                query_cols,
            },
            k: config.k,
        })
    }

    /// The k of every stored k-mer.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total reference k-mers stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the layout holds no references.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The globally sorted entries.
    #[must_use]
    pub fn entries(&self) -> &[(Kmer, TaxonId)] {
        &self.entries
    }

    /// Reference capacity of one subarray.
    #[must_use]
    pub fn refs_per_subarray(&self) -> u32 {
        self.refs_per_subarray
    }

    /// Number of subarrays that hold at least one reference.
    #[must_use]
    pub fn occupied_subarrays(&self) -> usize {
        self.entries.len().div_ceil(self.refs_per_subarray as usize)
    }

    /// The layout view of occupied subarray `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= occupied_subarrays()`.
    #[must_use]
    pub fn subarray(&self, index: usize) -> SubarrayView<'_> {
        assert!(
            index < self.occupied_subarrays(),
            "subarray {index} beyond the {} occupied",
            self.occupied_subarrays()
        );
        let start = index * self.refs_per_subarray as usize;
        let end = (start + self.refs_per_subarray as usize).min(self.entries.len());
        SubarrayView {
            entries: &self.entries[start..end],
            group: self.group,
        }
    }

    /// Iterator over all occupied subarray views.
    pub fn subarrays(&self) -> impl Iterator<Item = SubarrayView<'_>> {
        (0..self.occupied_subarrays()).map(|i| self.subarray(i))
    }
}

/// One subarray's slice of the sorted reference set, plus the column math.
#[derive(Debug, Clone, Copy)]
pub struct SubarrayView<'a> {
    entries: &'a [(Kmer, TaxonId)],
    group: GroupShape,
}

impl<'a> SubarrayView<'a> {
    /// This subarray's sorted entries.
    #[must_use]
    pub fn entries(&self) -> &'a [(Kmer, TaxonId)] {
        self.entries
    }

    /// References stored here.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the subarray holds no references.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Smallest stored k-mer (the index table's `first` field).
    ///
    /// # Panics
    ///
    /// Panics if the subarray is empty.
    #[must_use]
    pub fn first(&self) -> Kmer {
        self.entries.first().expect("non-empty subarray").0
    }

    /// Largest stored k-mer (the index table's `last` field).
    ///
    /// # Panics
    ///
    /// Panics if the subarray is empty.
    #[must_use]
    pub fn last(&self) -> Kmer {
        self.entries.last().expect("non-empty subarray").0
    }

    /// The group shape in effect.
    #[must_use]
    pub fn group(&self) -> GroupShape {
        self.group
    }

    /// Physical column of the reference with (subarray-local, sorted)
    /// rank `rank`. Monotone increasing in `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= len()`.
    #[must_use]
    pub fn col_of_rank(&self, rank: usize) -> u32 {
        assert!(rank < self.len(), "rank {rank} out of range");
        let per_group = self.group.ref_cols() as usize;
        let g = (rank / per_group) as u32;
        let within = (rank % per_group) as u32;
        g * self.group.cols + self.group.col_of_rank(within)
    }

    /// The rank stored at physical column `col`, or `None` for query slots,
    /// unused columns, and columns past the stored set.
    #[must_use]
    pub fn rank_of_col(&self, col: u32) -> Option<usize> {
        let g = col / self.group.cols;
        let within_col = col % self.group.cols;
        let within = self.group.rank_of_col(within_col)?;
        let rank = g as usize * self.group.ref_cols() as usize + within as usize;
        (rank < self.len()).then_some(rank)
    }

    /// The contiguous rank range whose columns fall in `[col_start,
    /// col_end)` — e.g. one ETM segment or one Type-1 batch. Exploits the
    /// monotonicity of [`Self::col_of_rank`].
    #[must_use]
    pub fn ranks_in_cols(&self, col_start: u32, col_end: u32) -> std::ops::Range<usize> {
        let lo = self.partition_rank(col_start);
        let hi = self.partition_rank(col_end);
        lo..hi
    }

    /// Smallest rank whose column is ≥ `col` (== len() if none): the
    /// references of every earlier group, plus this group's references in
    /// columns before `col`.
    fn partition_rank(&self, col: u32) -> usize {
        let g = (col / self.group.cols) as usize;
        let before = g * self.group.ref_cols() as usize
            + self.group.ranks_before_col(col % self.group.cols) as usize;
        before.min(self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_dram::Geometry;
    use sieve_genomics::synth;

    fn small_config() -> SieveConfig {
        SieveConfig::type3(4).with_geometry(Geometry::scaled_medium())
    }

    fn layout_with(n_entries_hint: usize) -> DeviceLayout {
        let ds = synth::make_dataset_with(8, n_entries_hint / 7, 31, 99);
        DeviceLayout::build(ds.entries, &small_config()).unwrap()
    }

    #[test]
    fn group_shape_matches_figure_7e() {
        let g = GroupShape {
            cols: 576,
            query_cols: 64,
        };
        assert_eq!(g.ref_cols(), 512);
        // BL0..BL255 are refs 0..255.
        assert_eq!(g.col_of_rank(0), 0);
        assert_eq!(g.col_of_rank(255), 255);
        // BL256..BL319 are query slots.
        assert_eq!(g.rank_of_col(256), None);
        assert_eq!(g.rank_of_col(319), None);
        // BL320..BL575 are refs 256..511.
        assert_eq!(g.col_of_rank(256), 320);
        assert_eq!(g.col_of_rank(511), 575);
        assert_eq!(g.rank_of_col(575), Some(511));
    }

    #[test]
    fn group_col_rank_round_trip() {
        let g = GroupShape {
            cols: 576,
            query_cols: 64,
        };
        for r in 0..g.ref_cols() {
            assert_eq!(g.rank_of_col(g.col_of_rank(r)), Some(r));
        }
    }

    #[test]
    fn build_sorts_and_dedups() {
        let ds = synth::make_dataset_with(4, 512, 31, 5);
        let mut entries = ds.entries.clone();
        entries.extend_from_slice(&ds.entries[..10]); // duplicates
        entries.reverse(); // unsorted
        let layout = DeviceLayout::build(entries, &small_config()).unwrap();
        assert_eq!(layout.len(), ds.entries.len());
        for w in layout.entries().windows(2) {
            assert!(w[0].0.bits() < w[1].0.bits());
        }
    }

    #[test]
    fn k_mismatch_rejected() {
        let ds = synth::make_dataset_with(4, 512, 21, 5);
        let err = DeviceLayout::build(ds.entries, &small_config()).unwrap_err();
        assert!(matches!(
            err,
            SieveError::KMismatch {
                expected: 31,
                actual: 21
            }
        ));
    }

    #[test]
    fn capacity_enforced() {
        let config = SieveConfig::type3(4).with_geometry(Geometry::scaled_small());
        // scaled_small: 1024-col rows → 1 group → 512 refs/subarray ×
        // 16 subarrays = 8,192 capacity.
        assert_eq!(config.capacity_kmers(), 8_192);
        let ds = synth::make_dataset_with(8, 4096, 31, 5);
        assert!(ds.entries.len() > 8_192);
        let err = DeviceLayout::build(ds.entries, &config).unwrap_err();
        assert!(matches!(err, SieveError::CapacityExceeded { .. }));
    }

    #[test]
    fn subarrays_partition_in_sorted_order() {
        let layout = layout_with(30_000);
        assert!(layout.occupied_subarrays() >= 2);
        let mut prev_last: Option<u64> = None;
        let mut total = 0;
        for sa in layout.subarrays() {
            if let Some(prev) = prev_last {
                assert!(sa.first().bits() > prev, "subarrays out of order");
            }
            prev_last = Some(sa.last().bits());
            total += sa.len();
        }
        assert_eq!(total, layout.len());
    }

    #[test]
    fn col_of_rank_is_monotone_and_invertible() {
        let layout = layout_with(30_000);
        let sa = layout.subarray(0);
        let mut prev = None;
        for rank in 0..sa.len() {
            let col = sa.col_of_rank(rank);
            if let Some(p) = prev {
                assert!(col > p, "columns must increase with rank");
            }
            prev = Some(col);
            assert_eq!(sa.rank_of_col(col), Some(rank));
        }
    }

    #[test]
    fn query_columns_hold_no_rank() {
        let layout = layout_with(30_000);
        let sa = layout.subarray(0);
        // First group's query block: cols 256..320.
        for col in 256..320 {
            assert_eq!(sa.rank_of_col(col), None);
        }
    }

    #[test]
    fn ranks_in_cols_covers_segments_exactly() {
        let layout = layout_with(30_000);
        let sa = layout.subarray(0);
        let mut covered = 0usize;
        let mut prev_end = 0usize;
        for seg in 0..(8192 / 256) {
            let r = sa.ranks_in_cols(seg * 256, (seg + 1) * 256);
            assert_eq!(r.start, prev_end, "segment ranges must tile");
            prev_end = r.end;
            // Every rank in range has its column inside the segment.
            for rank in r.clone() {
                let col = sa.col_of_rank(rank);
                assert!(col >= seg * 256 && col < (seg + 1) * 256);
            }
            covered += r.len();
        }
        assert_eq!(covered, sa.len());
    }

    #[test]
    fn ranks_in_cols_matches_a_column_scan() {
        // Type-3 (query block mid-group) and Type-1 (dense) shapes, on a
        // full and a partly filled subarray, at group, segment and batch
        // boundaries and at odd columns inside and around the query block.
        let t1 = SieveConfig::type1().with_geometry(Geometry::scaled_medium());
        let t1_layout =
            DeviceLayout::build(synth::make_dataset_with(4, 2048, 31, 9).entries, &t1).unwrap();
        for layout in [layout_with(30_000), t1_layout] {
            for index in [0, layout.occupied_subarrays() - 1] {
                let sa = layout.subarray(index);
                let scan = |col: u32| (0..sa.len()).filter(|&r| sa.col_of_rank(r) < col).count();
                for col in (0..=8192)
                    .step_by(64)
                    .chain([1, 255, 256, 257, 319, 320, 321, 575, 577])
                {
                    assert_eq!(sa.ranks_in_cols(0, col), 0..scan(col), "column {col}");
                }
            }
        }
    }

    #[test]
    fn type1_layout_has_no_query_columns() {
        let config = SieveConfig::type1().with_geometry(Geometry::scaled_medium());
        let ds = synth::make_dataset_with(4, 1024, 31, 5);
        let layout = DeviceLayout::build(ds.entries, &config).unwrap();
        let sa = layout.subarray(0);
        assert_eq!(sa.group().query_cols, 0);
        // Dense mapping: rank == column.
        for rank in 0..sa.len().min(100) {
            assert_eq!(sa.col_of_rank(rank), rank as u32);
        }
    }

    #[test]
    fn empty_layout_is_valid() {
        let layout = DeviceLayout::build(Vec::new(), &small_config()).unwrap();
        assert!(layout.is_empty());
        assert_eq!(layout.occupied_subarrays(), 0);
    }
}
