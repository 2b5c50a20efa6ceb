//! A paged R\*-tree, as used by Paradise in the paper's evaluation.
//!
//! The study's two index-based competitors both run on R\*-trees
//! \[BKSS90\]: the indexed-nested-loops join probes one, and the tree join
//! of \[BKS93\] synchronously traverses two. Paradise builds indices either
//! by **bulk loading** — Hilbert-sorting the key-pointers and packing
//! nodes bottom-up (§4.1) — or by **multiple inserts**, which the paper
//! measures as ~8x slower (109.9 s vs 864.5 s for 122 K objects). Both
//! paths are implemented here:
//!
//! * [`bulk::bulk_load`] — bottom-up build from Hilbert-sorted entries.
//! * [`RTree::insert`](insert) — full R\* insertion: ChooseSubtree, forced
//!   reinsertion, and the R\* split with its margin/overlap heuristics.
//! * [`query`] — window (rectangle) probes for the INL join.
//! * [`join::rtree_join`] — the BKS93 synchronized depth-first traversal,
//!   joining node pairs with the same plane sweep PBSM uses on partitions.
//!
//! Nodes live on [`pbsm_storage`] pages and all access is metered through
//! the buffer pool, so index builds, probes, and tree joins show up in the
//! I/O counters exactly as in the paper's cost breakdowns.

pub mod bulk;
pub mod insert;
pub mod join;
pub mod node;
pub mod query;
pub mod split;

pub use node::{Entry, Node, DEFAULT_CAPACITY};

use pbsm_storage::buffer::BufferPool;
use pbsm_storage::catalog::IndexMeta;
use pbsm_storage::{FileId, PageId, StorageResult};

/// Handle to an R\*-tree stored in one file of the simulated disk.
pub struct RTree {
    file: FileId,
    root: PageId,
    height: u32,
    capacity: usize,
    entries: u64,
}

impl RTree {
    /// Creates an empty tree (a single empty leaf as root) with the given
    /// node capacity. Use [`DEFAULT_CAPACITY`] outside tests.
    pub fn create(pool: &BufferPool, capacity: usize) -> StorageResult<Self> {
        assert!(capacity >= 4, "R*-tree capacity must be at least 4");
        // Index files are rebuildable from their relation: under a
        // journaled pool the intent stays uncommitted, so recovery
        // reclaims a half-built index rather than trusting it.
        let file = pool.begin_intent()?;
        let root_node = Node {
            is_leaf: true,
            entries: Vec::new(),
        };
        let root = node::append_node(pool, file, &root_node)?;
        Ok(RTree {
            file,
            root,
            height: 1,
            capacity,
            entries: 0,
        })
    }

    /// Re-opens a tree from catalog metadata (capacity is layout-implied,
    /// so the default is used).
    pub fn open(meta: IndexMeta) -> Self {
        RTree {
            file: meta.file,
            root: meta.root,
            height: meta.height,
            capacity: DEFAULT_CAPACITY,
            entries: meta.entries,
        }
    }

    /// Catalog metadata for this tree.
    pub fn meta(&self) -> IndexMeta {
        IndexMeta {
            file: self.file,
            root: self.root,
            height: self.height,
            entries: self.entries,
        }
    }

    /// The file holding the tree's pages.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Root page.
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Tree height (leaf level = 1).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Node capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of leaf entries.
    pub fn num_entries(&self) -> u64 {
        self.entries
    }

    /// Number of pages (== nodes) in the tree file.
    pub fn num_pages(&self, pool: &BufferPool) -> u32 {
        pool.disk().num_pages(self.file)
    }

    /// Index size in bytes, for Table 2/3-style reporting.
    pub fn bytes(&self, pool: &BufferPool) -> u64 {
        self.num_pages(pool) as u64 * pbsm_storage::PAGE_SIZE as u64
    }

    /// Minimum fill (the R\* 40 % of capacity, at least 2).
    pub(crate) fn min_fill(&self) -> usize {
        (self.capacity * 2 / 5).max(2)
    }

    /// Forced-reinsert count (the R\* p = 30 % of capacity, at least 1).
    pub(crate) fn reinsert_count(&self) -> usize {
        (self.capacity * 3 / 10).max(1)
    }
}
