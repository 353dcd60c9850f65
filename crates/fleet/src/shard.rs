//! Partitioning a fleet population into cells and shards.
//!
//! The unit of simulated work is a **cell**: a fixed-size block of
//! consecutive user indices that runs as one self-contained [`simnet`]
//! simulation. A cell's outcome depends only on `(master_seed, cell_id)` —
//! never on the shard that happens to execute it — so distributing cells
//! across shards round-robin changes *where* work runs, not *what* it
//! computes. Combined with the exactly-mergeable instruments in
//! [`crate::metrics`], this is what makes merged fleet reports
//! byte-identical across shard counts.

/// One cell of the fleet population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSpec {
    /// Cell index (dense, starting at 0); seeds the cell's simulation.
    pub cell: u64,
    /// First global user index owned by this cell.
    pub first_user: u64,
    /// Number of users in this cell.
    pub users: u64,
}

/// Split `users` user indices into cells of at most `cell_users` each.
///
/// # Panics
/// Panics if `cell_users` is zero.
pub fn plan_cells(users: u64, cell_users: u64) -> Vec<CellSpec> {
    assert!(cell_users > 0, "cell size must be positive");
    let mut cells = Vec::new();
    let mut first = 0u64;
    while first < users {
        let n = cell_users.min(users - first);
        cells.push(CellSpec {
            cell: cells.len() as u64,
            first_user: first,
            users: n,
        });
        first += n;
    }
    cells
}

/// Deal `cells` across `shards` round-robin (cell `i` → shard `i % shards`).
///
/// The one deal, for in-process shards and `fleet-shard` worker processes
/// alike. Round-robin (rather than contiguous ranges) keeps shard workloads
/// balanced even when per-cell cost drifts with user index, and makes the
/// cell→shard map independent of the total cell count. With more shards
/// than cells the trailing shards get an empty list.
///
/// # Panics
/// Panics if `shards` is zero.
pub fn assign_round_robin(cells: &[CellSpec], shards: usize) -> Vec<Vec<CellSpec>> {
    assert!(shards > 0, "need at least one shard");
    let mut out = vec![Vec::new(); shards];
    for (i, c) in cells.iter().enumerate() {
        out[i % shards].push(*c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_partition_users_exactly() {
        for (users, per) in [(0u64, 50u64), (1, 50), (50, 50), (51, 50), (1000, 64)] {
            let cells = plan_cells(users, per);
            let total: u64 = cells.iter().map(|c| c.users).sum();
            assert_eq!(total, users, "{users} users, {per}/cell");
            // Contiguous, dense, in order.
            let mut next = 0u64;
            for (i, c) in cells.iter().enumerate() {
                assert_eq!(c.cell, i as u64);
                assert_eq!(c.first_user, next);
                assert!(c.users >= 1 && c.users <= per);
                next += c.users;
            }
        }
    }

    #[test]
    fn only_the_last_cell_is_short() {
        let cells = plan_cells(130, 50);
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[0].users, 50);
        assert_eq!(cells[1].users, 50);
        assert_eq!(cells[2].users, 30);
    }

    #[test]
    fn round_robin_balances_and_preserves_every_cell() {
        let cells = plan_cells(1000, 50); // 20 cells
        for shards in [1usize, 2, 3, 7, 20, 32] {
            let assigned = assign_round_robin(&cells, shards);
            assert_eq!(assigned.len(), shards);
            let mut seen: Vec<u64> = assigned.iter().flatten().map(|c| c.cell).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..20u64).collect::<Vec<_>>(), "{shards} shards");
            let sizes: Vec<usize> = assigned.iter().map(Vec::len).collect();
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "unbalanced at {shards} shards: {sizes:?}");
        }
    }
}
