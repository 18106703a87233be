//! Transposed (bit-sliced) die blocks: up to [`W256::LANES`] (256)
//! Monte-Carlo dies per lane value.
//!
//! # Transposed layout
//!
//! The scalar and sparse kernels evaluate one die at a time: a die is a
//! [`FaultMap`](crate::FaultMap), and every scheme walks its faulty rows.
//! The bit-sliced kernel instead packs **up to `W256::LANES` consecutive
//! samples of the global plan** into one [`DieBlock`] and transposes the
//! fault data: for every `(row, column)` cell that is faulty in *any* die
//! of the block, a [`LaneCell`] holds three lanes whose bit `j` (bit
//! `j % 64` of lane word `j / 64`) describes die `j`:
//!
//! * `flips` — die `j` has a bit-flip fault at this cell;
//! * `stuck` — die `j` has a stuck-at fault at this cell;
//! * `stuck_value` — the value die `j`'s cell is stuck at (meaningful only
//!   where `stuck` is set — the lane a [`FaultKindLaw`](crate::FaultKindLaw)
//!   populates).
//!
//! Cells are grouped by row ([`BlockRow`]), rows ascend, and cells within a
//! row ascend by column — the same deterministic order the flat
//! [`FaultMap`](crate::FaultMap) guarantees. Each row also carries a `dirty`
//! lane (`flips | stuck` OR-ed over its cells): bit `j` set means die `j`
//! has at least one fault in this row, i.e. the per-die sparse kernel would
//! have *visited* the row. Block reductions must use `dirty` (fault
//! **presence**, not observable error) as their visit predicate so they
//! reproduce the sparse kernel's `-0.0 + 0.0` accumulation bit for bit.
//!
//! With this layout one bitwise operation on a lane does the work of
//! `W256::LANES` scalar dies, which is how the mitigation schemes'
//! `observe_block` paths (in `faultmit-core`) evaluate a whole block per
//! row walk. The hot loops use only the element-wise bit algebra (`&`,
//! `|`, `^`, `!`), so no lane operation crosses a word boundary and the
//! plain-array [`W256`] stays autovectorisable. Per-die access
//! ([`W256::bit`], [`W256::for_each_die`]) walks words in ascending order,
//! matching the per-sample kernels' reduction order.
//!
//! # Why RNG stream order is preserved (the generation contract)
//!
//! Block *generation* preserves the scalar per-sample RNG schedule even
//! where it is lane-parallel. Every planned sample owns the stream
//! [`StreamSeeder::rng_for_sample`](crate::StreamSeeder::rng_for_sample)
//! derives for it, and a block is filled one of two ways:
//!
//! * **Scalar fallback** — the existing per-sample generation path
//!   ([`DieScratch::generate`](crate::DieScratch::generate) /
//!   [`generate_single_fault_per_row`](crate::DieScratch::generate_single_fault_per_row))
//!   runs once per sample and the resulting faults are transposed
//!   afterwards. Used whenever a backend's schedule is data-dependent
//!   (DRAM clustering, MLC column weighting) or a redraw policy is active.
//! * **Wide generation** (the [`crate::widegen`] module) — backends that
//!   declare an iid-uniform Floyd schedule via
//!   [`FaultBackend::wide_generation`](crate::backend::FaultBackend::wide_generation)
//!   are generated [`WIDE_LANES`](crate::widegen::WIDE_LANES) samples at a
//!   time on lane-interleaved xoshiro256++ streams, each lane seeded and
//!   advanced **exactly** as its scalar stream would be (masked advances,
//!   per-lane rejection, scalar drain of a divergent tail), with events
//!   emitted directly in the scalar order.
//!
//! Either way every sample consumes exactly the RNG stream it consumes on
//! the scalar path — determinism, sharding and paired scheme comparison
//! are untouched, and the block kernels' fault populations are
//! *bit-identical* to the scalar and sparse kernels': by construction on
//! the fallback path, by the golden-vector and `kernel_equivalence` gates
//! on the wide path (see the [`crate::widegen`] module docs for the
//! structural-vs-gated split of that contract).
//!
//! # The scalar tail
//!
//! Campaign plans are not multiples of the lane width, and chunk boundaries
//! (a pure function of the global plan) never move: the executor groups
//! each chunk's samples into blocks of at most `W256::LANES` and falls back
//! to the per-sample sparse path for degenerate single-sample groups. Any
//! grouping yields identical results because per-sample RNG streams and
//! the chunk-order reduction are independent of how samples are batched.

use crate::config::MemoryConfig;
use crate::fault::{Fault, FaultKind};
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Not};

/// A 256-die lane: four `u64` words with element-wise bit operations.
///
/// The representation is a plain array and every operation is a
/// fixed-length per-element loop with no cross-word data flow, which is
/// exactly the shape LLVM's autovectoriser turns into SIMD on wide hosts —
/// no `std::simd`, no `unsafe`, no target-feature gates. Die `j` lives in
/// bit `j % 64` of word `j / 64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct W256(pub [u64; 4]);

macro_rules! w256_binop {
    ($op_trait:ident, $op_method:ident, $assign_trait:ident, $assign_method:ident, $op:tt) => {
        impl $op_trait for W256 {
            type Output = W256;

            #[inline]
            fn $op_method(self, rhs: W256) -> W256 {
                W256([
                    self.0[0] $op rhs.0[0],
                    self.0[1] $op rhs.0[1],
                    self.0[2] $op rhs.0[2],
                    self.0[3] $op rhs.0[3],
                ])
            }
        }

        impl $assign_trait for W256 {
            #[inline]
            fn $assign_method(&mut self, rhs: W256) {
                *self = *self $op rhs;
            }
        }
    };
}

w256_binop!(BitAnd, bitand, BitAndAssign, bitand_assign, &);
w256_binop!(BitOr, bitor, BitOrAssign, bitor_assign, |);
w256_binop!(BitXor, bitxor, BitXorAssign, bitxor_assign, ^);

impl Not for W256 {
    type Output = W256;

    #[inline]
    fn not(self) -> W256 {
        W256([!self.0[0], !self.0[1], !self.0[2], !self.0[3]])
    }
}

impl W256 {
    /// Number of dies a lane addresses (one bit per die).
    pub const LANES: usize = 256;
    /// Number of backing `u64` words (`LANES / 64`).
    pub const WORDS: usize = 4;
    /// The all-clear lane.
    pub const ZERO: Self = W256([0; 4]);

    /// Broadcasts one `u64` bit pattern to every backing word
    /// (`splat(0u64.wrapping_sub(bit))` is all-ones when `bit` is 1).
    #[must_use]
    #[inline]
    pub fn splat(word: u64) -> Self {
        W256([word; 4])
    }

    /// The lane with only die `die`'s bit set.
    #[must_use]
    #[inline]
    pub fn lane_bit(die: usize) -> Self {
        let mut words = [0u64; 4];
        words[die / 64] = 1u64 << (die % 64);
        W256(words)
    }

    /// Whether no die's bit is set.
    #[must_use]
    #[inline]
    pub fn is_zero(self) -> bool {
        (self.0[0] | self.0[1] | self.0[2] | self.0[3]) == 0
    }

    /// Die `die`'s bit, as `0` or `1`.
    #[must_use]
    #[inline]
    pub fn bit(self, die: usize) -> u64 {
        (self.0[die / 64] >> (die % 64)) & 1
    }

    /// Backing word `index` (dies `index * 64 ..= index * 64 + 63`).
    #[must_use]
    #[inline]
    pub fn word(self, index: usize) -> u64 {
        self.0[index]
    }

    /// Total number of set bits (dies) across all backing words.
    #[must_use]
    #[inline]
    pub fn count_ones(self) -> u32 {
        self.0[0].count_ones()
            + self.0[1].count_ones()
            + self.0[2].count_ones()
            + self.0[3].count_ones()
    }

    /// Visits every set die in ascending die order, word by word via
    /// `trailing_zeros`.
    #[inline]
    pub fn for_each_die(self, mut f: impl FnMut(usize)) {
        for (index, &word) in self.0.iter().enumerate() {
            let mut lanes = word;
            while lanes != 0 {
                let die = index * 64 + lanes.trailing_zeros() as usize;
                lanes &= lanes - 1;
                f(die);
            }
        }
    }
}

/// The lanes of one faulty `(row, col)` cell across all dies of a block.
///
/// Bit `j` of each lane describes die `j` (the block's `j`-th planned
/// sample). At most one of `flips` / `stuck` is set per die — a physical
/// cell has exactly one behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneCell {
    /// Bit position (column) of the cell within the word, 0 = LSB.
    pub col: u32,
    /// Dies whose cell flips the stored bit on read.
    pub flips: W256,
    /// Dies whose cell is stuck at `stuck_value`.
    pub stuck: W256,
    /// The stuck-at value per die (only bits under `stuck` are meaningful).
    pub stuck_value: W256,
}

impl LaneCell {
    /// Dies that have *any* fault at this cell — the fault-presence lane
    /// that drives row-visit bookkeeping and the bit-shuffle FM-LUT vote.
    #[must_use]
    #[inline]
    pub fn presence(&self) -> W256 {
        self.flips | self.stuck
    }
}

/// Rebuilds die `die`'s faults at `row` from that row's lane cells into
/// `out`, returning the filled prefix: sorted by ascending column, exactly
/// the slice [`FaultMap::row_faults`](crate::FaultMap::row_faults) holds for
/// the die, so it can feed a per-die `observe_sparse` path.
///
/// # Panics
///
/// Panics if the die has more than 64 faulty cells in the row (a word has
/// at most 64 columns, so well-formed `cells` never do).
#[inline]
pub fn die_row_faults<'f>(
    cells: &[LaneCell],
    row: usize,
    die: usize,
    out: &'f mut [Fault; 64],
) -> &'f [Fault] {
    let mut len = 0;
    for cell in cells {
        if cell.presence().bit(die) != 0 {
            let kind = if cell.flips.bit(die) != 0 {
                FaultKind::BitFlip
            } else if cell.stuck_value.bit(die) != 0 {
                FaultKind::StuckAtOne
            } else {
                FaultKind::StuckAtZero
            };
            out[len] = Fault::new(row, cell.col as usize, kind);
            len += 1;
        }
    }
    &out[..len]
}

/// One faulty row of a block: its index, its fault-presence (`dirty`) lane,
/// and its transposed cells sorted by ascending column.
#[derive(Debug, Clone, Copy)]
pub struct BlockRow<'a> {
    /// Row (word address) within the memory.
    pub row: usize,
    /// Bit `j` set ⇔ die `j` has at least one fault in this row.
    pub dirty: W256,
    /// The row's lane cells, ascending by column.
    pub cells: &'a [LaneCell],
}

/// Internal row directory entry: the cell range backing one [`BlockRow`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockRowEntry {
    pub(crate) row: usize,
    pub(crate) start: u32,
    pub(crate) end: u32,
    pub(crate) dirty: W256,
}

/// A transposed view over up to `W256::LANES` generated dies, borrowed from
/// the [`BlockScratch`](crate::BlockScratch) arena that generated them
/// (valid until the next generation call).
#[derive(Debug, Clone, Copy)]
pub struct DieBlock<'a> {
    rows: &'a [BlockRowEntry],
    cells: &'a [LaneCell],
    dies: usize,
    config: MemoryConfig,
}

impl<'a> DieBlock<'a> {
    pub(crate) fn new(
        rows: &'a [BlockRowEntry],
        cells: &'a [LaneCell],
        dies: usize,
        config: MemoryConfig,
    ) -> Self {
        Self {
            rows,
            cells,
            dies,
            config,
        }
    }

    /// Number of dies packed into the block (`1..=W256::LANES`); die `j`
    /// occupies bit `j` of every lane.
    #[must_use]
    #[inline]
    pub fn die_count(&self) -> usize {
        self.dies
    }

    /// Geometry shared by every die of the block.
    #[must_use]
    #[inline]
    pub fn config(&self) -> MemoryConfig {
        self.config
    }

    /// Number of rows that are faulty in at least one die.
    #[must_use]
    pub fn faulty_row_count(&self) -> usize {
        self.rows.len()
    }

    /// Iterates the block's faulty rows in ascending row order.
    #[inline]
    pub fn rows(&self) -> impl Iterator<Item = BlockRow<'a>> + '_ {
        self.rows.iter().map(|entry| BlockRow {
            row: entry.row,
            dirty: entry.dirty,
            cells: &self.cells[entry.start as usize..entry.end as usize],
        })
    }
}

/// Packs one fault event for the transposition sort. Layout (LSB to MSB):
/// 2 kind bits, 8 die bits, 6 column bits, then the row — so an unstable
/// sort of the packed words yields `(row, col, die)` order and equal keys
/// are impossible (a die has at most one fault per cell). The 8-bit die
/// field caps blocks at 256 dies, the [`W256`] lane width.
#[inline]
pub(crate) fn pack_event(row: usize, col: usize, die: usize, kind: FaultKind) -> u64 {
    debug_assert!(col < 64 && die < 256);
    let kind_code = match kind {
        FaultKind::StuckAtZero => 0u64,
        FaultKind::StuckAtOne => 1,
        FaultKind::BitFlip => 2,
    };
    ((row as u64) << 16) | ((col as u64) << 10) | ((die as u64) << 2) | kind_code
}

/// The `(row, col)` bucket key of a packed event — what the counting sort
/// in [`BlockScratch::generate_block`](crate::BlockScratch::generate_block)
/// buckets on (die order inside a bucket is the arrival order, which is
/// already ascending).
#[inline]
pub(crate) fn event_sort_key(event: u64) -> usize {
    (event >> 10) as usize
}

/// Rebuilds the row directory and lane cells from sorted packed events.
/// Clears (but never shrinks) the output buffers.
pub(crate) fn transpose_events(
    events: &[u64],
    cells: &mut Vec<LaneCell>,
    rows: &mut Vec<BlockRowEntry>,
) {
    cells.clear();
    rows.clear();
    for &event in events {
        let row = (event >> 16) as usize;
        let col = ((event >> 10) & 0x3F) as u32;
        let die = ((event >> 2) & 0xFF) as usize;
        let kind_code = event & 0b11;
        let die_bit = W256::lane_bit(die);

        let new_row = rows.last().is_none_or(|entry| entry.row != row);
        if new_row {
            rows.push(BlockRowEntry {
                row,
                start: cells.len() as u32,
                end: cells.len() as u32,
                dirty: W256::ZERO,
            });
        }
        let entry = rows.last_mut().expect("a row entry was just ensured");
        let new_cell = cells.len() == entry.start as usize || {
            let last = cells.last().expect("non-empty cell run for this row");
            last.col != col
        };
        if new_cell {
            cells.push(LaneCell {
                col,
                flips: W256::ZERO,
                stuck: W256::ZERO,
                stuck_value: W256::ZERO,
            });
            entry.end = cells.len() as u32;
        }
        let cell = cells.last_mut().expect("a lane cell was just ensured");
        match kind_code {
            0 => cell.stuck |= die_bit, // stuck at zero: value bit stays 0
            1 => {
                cell.stuck |= die_bit;
                cell.stuck_value |= die_bit;
            }
            _ => cell.flips |= die_bit,
        }
        entry.dirty |= die_bit;
    }
}

/// Per-data-column residual-error lanes for one row of a block: bit `j` of
/// lane `c` says the word die `j` observes differs from the written word at
/// data bit `c`, after the mitigation scheme has done its work.
///
/// The buffer is fixed-size stack storage (64 [`W256`] lanes, 2 KiB) and
/// clears sparsely through its column mask, so per-row reuse is
/// allocation-free.
#[derive(Debug, Clone)]
pub struct ResidualLanes {
    lanes: [W256; 64],
    colmask: u64,
}

impl Default for ResidualLanes {
    fn default() -> Self {
        Self::new()
    }
}

impl ResidualLanes {
    /// An all-clear residual buffer.
    #[must_use]
    #[inline]
    pub fn new() -> Self {
        Self {
            lanes: [W256::ZERO; 64],
            colmask: 0,
        }
    }

    /// Clears every touched lane (sparse: only columns in the mask).
    #[inline]
    pub fn clear(&mut self) {
        let mut mask = self.colmask;
        while mask != 0 {
            let col = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            self.lanes[col] = W256::ZERO;
        }
        self.colmask = 0;
    }

    /// ORs `lane` into data column `col` (no-op for an all-zero lane, so
    /// the column mask stays tight).
    #[inline]
    pub fn accumulate(&mut self, col: usize, lane: W256) {
        if !lane.is_zero() {
            self.lanes[col] |= lane;
            self.colmask |= 1u64 << col;
        }
    }

    /// Mask of data columns holding at least one residual error.
    #[must_use]
    #[inline]
    pub fn colmask(&self) -> u64 {
        self.colmask
    }

    /// The raw residual lane for data column `col`: bit `j` says die `j`
    /// observes an error at this data bit. Columns outside
    /// [`colmask`](Self::colmask) read as zero.
    #[must_use]
    #[inline]
    pub fn lane(&self, col: usize) -> W256 {
        self.lanes[col]
    }

    /// Transposes die `die`'s residual lanes back into a per-word diff: bit
    /// `c` of the result is bit `die` of lane `c`.
    #[must_use]
    #[inline]
    pub fn gather_die(&self, die: usize) -> u64 {
        let mut diff = 0u64;
        let mut mask = self.colmask;
        while mask != 0 {
            let col = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            diff |= self.lanes[col].bit(die) << col;
        }
        diff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, BackendKind, FaultKindLaw};
    use crate::scratch::{BlockScratch, DieScratch};
    use crate::seeder::{PlannedSample, StreamSeeder};

    fn config() -> MemoryConfig {
        MemoryConfig::new(128, 32).unwrap()
    }

    fn plan(start: u64, len: usize, n_faults: u64) -> Vec<PlannedSample> {
        (0..len as u64)
            .map(|j| PlannedSample {
                index: start + j,
                n_faults,
            })
            .collect()
    }

    /// Generates `plan` die by die through the per-sample path — the
    /// reference population every block must reproduce exactly.
    fn per_sample_reference(
        backend: &Backend,
        seeder: &StreamSeeder,
        plan: &[PlannedSample],
    ) -> Vec<Vec<crate::fault::Fault>> {
        let mut reference = DieScratch::new(config());
        plan.iter()
            .map(|planned| {
                let mut rng = seeder.rng_for_sample(planned.index);
                reference
                    .generate(backend, &mut rng, planned.n_faults as usize)
                    .unwrap()
                    .iter()
                    .collect()
            })
            .collect()
    }

    /// Untransposes a block back into per-die fault lists, row by row
    /// through [`die_row_faults`].
    fn untranspose(block: &DieBlock<'_>) -> Vec<Vec<Fault>> {
        let mut scratch = [Fault::bit_flip(0, 0); 64];
        (0..block.die_count())
            .map(|die| {
                block
                    .rows()
                    .flat_map(|row| die_row_faults(row.cells, row.row, die, &mut scratch).to_vec())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn block_lanes_match_per_sample_maps_on_every_backend() {
        let seeder = StreamSeeder::new(0x256B);
        for kind in BackendKind::ALL {
            for law in [
                FaultKindLaw::AlwaysFlip,
                FaultKindLaw::AsymmetricStuckAt {
                    p_stuck_at_zero: 0.4,
                },
            ] {
                let backend = Backend::at_p_cell(kind, config(), 1e-3)
                    .unwrap()
                    .with_kind_law(law)
                    .unwrap();
                // Not a multiple of 64, so every W256 word boundary is
                // crossed and the last word is partial.
                let plan = plan(5, 200, 9);
                let expected = per_sample_reference(&backend, &seeder, &plan);
                let mut scratch = BlockScratch::new(config());
                let block = scratch
                    .generate_block(&backend, &seeder, &plan, None)
                    .unwrap();
                assert_eq!(block.die_count(), 200);
                assert_eq!(untranspose(&block), expected, "{kind} {law:?}");
            }
        }
    }

    #[test]
    fn block_rows_ascend_and_dirty_matches_presence() {
        let seeder = StreamSeeder::new(7);
        let backend = Backend::at_p_cell(BackendKind::Sram, config(), 1e-3).unwrap();
        let mut scratch = BlockScratch::new(config());
        let block = scratch
            .generate_block(&backend, &seeder, &plan(0, 256, 12), None)
            .unwrap();
        let mut previous_row = None;
        for row in block.rows() {
            if let Some(previous) = previous_row {
                assert!(row.row > previous, "rows must ascend");
            }
            previous_row = Some(row.row);
            let mut presence = W256::ZERO;
            let mut previous_col = None;
            for cell in row.cells {
                if let Some(previous) = previous_col {
                    assert!(cell.col > previous, "columns must ascend");
                }
                previous_col = Some(cell.col);
                assert!(
                    (cell.flips & cell.stuck).is_zero(),
                    "one behaviour per cell"
                );
                assert!(
                    (cell.stuck_value & !cell.stuck).is_zero(),
                    "stuck values only under stuck lanes"
                );
                presence |= cell.presence();
            }
            assert_eq!(row.dirty, presence);
            assert!(
                !row.dirty.is_zero(),
                "rows without faults must not be listed"
            );
        }
    }

    #[test]
    fn single_fault_per_row_policy_matches_per_sample_redraws() {
        let seeder = StreamSeeder::new(0xF167);
        let backend = Backend::at_p_cell(BackendKind::Sram, config(), 1e-3).unwrap();
        // Crosses the first two W256 word boundaries.
        let plan = plan(10, 150, 20);
        let mut reference = DieScratch::new(config());
        let mut expected: Vec<Vec<crate::fault::Fault>> = Vec::new();
        for planned in &plan {
            let mut rng = seeder.rng_for_sample(planned.index);
            let map = reference
                .generate_single_fault_per_row(&backend, &mut rng, planned.n_faults as usize, 8)
                .unwrap();
            expected.push(map.iter().collect());
        }
        let mut scratch = BlockScratch::new(config());
        let block = scratch
            .generate_block(&backend, &seeder, &plan, Some(8))
            .unwrap();
        let mut total = 0usize;
        for row in block.rows() {
            for cell in row.cells {
                total += cell.presence().count_ones() as usize;
            }
        }
        let expected_total: usize = expected.iter().map(Vec::len).sum();
        assert_eq!(total, expected_total);
        assert_eq!(untranspose(&block), expected);
    }

    #[test]
    fn oversized_plans_are_rejected() {
        let seeder = StreamSeeder::new(1);
        let backend = Backend::at_p_cell(BackendKind::Sram, config(), 1e-3).unwrap();
        let mut scratch = BlockScratch::new(config());
        assert!(scratch
            .generate_block(&backend, &seeder, &plan(0, 257, 1), None)
            .is_err());
        assert!(scratch
            .generate_block(&backend, &seeder, &plan(0, 256, 1), None)
            .is_ok());
    }

    #[test]
    fn w256_lane_algebra_acts_per_word() {
        // Per-word equivalence: every lane operation on W256 must act like
        // four independent u64 words.
        let a = W256([0x0123_4567_89AB_CDEF, !0, 0, 0xDEAD_BEEF_F00D_5EED]);
        let b = W256([0xFEDC_BA98_7654_3210, 0x5555_5555_5555_5555, 7, 0]);
        for index in 0..W256::WORDS {
            assert_eq!((a & b).word(index), a.word(index) & b.word(index));
            assert_eq!((a | b).word(index), a.word(index) | b.word(index));
            assert_eq!((a ^ b).word(index), a.word(index) ^ b.word(index));
            assert_eq!((!a).word(index), !a.word(index));
            assert_eq!(W256::splat(0xAB).word(index), 0xAB);
        }
        assert_eq!(
            a.count_ones(),
            (0..W256::WORDS)
                .map(|index| a.word(index).count_ones())
                .sum::<u32>()
        );
        assert!(W256::ZERO.is_zero());
        assert!(!a.is_zero());
    }

    #[test]
    fn w256_die_addressing_spans_word_boundaries() {
        for die in [0usize, 1, 63, 64, 100, 127, 128, 200, 255] {
            let lane = W256::lane_bit(die);
            assert_eq!(lane.count_ones(), 1, "die {die}");
            assert_eq!(lane.bit(die), 1, "die {die}");
            assert_eq!(lane.bit((die + 1) % 256), 0, "die {die}");
            let mut visited = Vec::new();
            lane.for_each_die(|d| visited.push(d));
            assert_eq!(visited, vec![die]);
        }
        // for_each_die ascends across words.
        let lane = W256::lane_bit(3) | W256::lane_bit(64) | W256::lane_bit(255);
        let mut visited = Vec::new();
        lane.for_each_die(|d| visited.push(d));
        assert_eq!(visited, vec![3, 64, 255]);
    }

    #[test]
    fn residual_lanes_round_trip_and_clear_sparsely() {
        let mut residual = ResidualLanes::new();
        residual.accumulate(3, W256::lane_bit(0) | W256::lane_bit(2));
        residual.accumulate(3, W256::lane_bit(1) | W256::lane_bit(70));
        residual.accumulate(31, W256::lane_bit(63) | W256::lane_bit(255));
        residual.accumulate(9, W256::ZERO); // no-op
        assert_eq!(residual.colmask(), (1 << 3) | (1 << 31));
        assert_eq!(residual.lane(9), W256::ZERO);
        for die in [0usize, 1, 2, 70] {
            assert_eq!(residual.gather_die(die), 1 << 3, "die {die}");
        }
        assert_eq!(residual.gather_die(63), 1 << 31);
        assert_eq!(residual.gather_die(255), 1 << 31);
        for die in [5usize, 64, 254] {
            assert_eq!(residual.gather_die(die), 0, "die {die}");
        }
        residual.clear();
        assert_eq!(residual.colmask(), 0);
        for die in 0..W256::LANES {
            assert_eq!(residual.gather_die(die), 0);
        }
    }
}
