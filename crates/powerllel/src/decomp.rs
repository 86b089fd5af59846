//! 2-D pencil decomposition (paper Figure 3b/3c).
//!
//! The global `nx × ny × nz` grid is distributed over a `py × pz`
//! process grid. In the **x-pencil** layout each rank owns the full x
//! extent and `ny/py × nz/pz` of the cross-section; the **y-pencil**
//! layout (used for the y-direction FFT) owns full y and `nx/py` of x.
//! The x↔y transpose is an alltoallv inside each *row* communicator
//! (fixed z-slab); the PDD solve communicates inside each *column*
//! communicator (fixed y-slab).

use unr_minimpi::Comm;

/// Split `n` into `p` nearly-even chunks; returns (start, len) of chunk
/// `idx`.
pub fn chunk(n: usize, p: usize, idx: usize) -> (usize, usize) {
    assert!(idx < p);
    let base = n / p;
    let rem = n % p;
    let len = base + usize::from(idx < rem);
    let start = idx * base + idx.min(rem);
    (start, len)
}

/// The decomposition for one rank.
pub struct Decomp {
    /// Global sizes.
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    /// Process grid.
    pub py: usize,
    pub pz: usize,
    /// This rank's coordinates in the process grid.
    pub cy: usize,
    pub cz: usize,
    /// x-pencil local extents and offsets.
    pub ly: usize,
    pub lz: usize,
    pub off_y: usize,
    pub off_z: usize,
    /// y-pencil local x extent and offset (x split over `py`).
    pub lx_t: usize,
    pub off_x_t: usize,
    /// Row communicator: the `py` ranks sharing this z-slab (transpose
    /// peers). Rank order = cy.
    pub row: Comm,
    /// Column communicator: the `pz` ranks sharing this y-slab (PDD
    /// peers). Rank order = cz.
    pub col: Comm,
    /// The world communicator used to build this decomposition.
    pub world: Comm,
}

impl Decomp {
    /// Build the decomposition collectively. `comm.size()` must equal
    /// `py * pz`; rank r maps to `(cy, cz) = (r % py, r / py)`.
    pub fn new(comm: &Comm, nx: usize, ny: usize, nz: usize, py: usize, pz: usize) -> Decomp {
        assert_eq!(comm.size(), py * pz, "process grid mismatch");
        let r = comm.rank();
        let cy = r % py;
        let cz = r / py;
        let (off_y, ly) = chunk(ny, py, cy);
        let (off_z, lz) = chunk(nz, pz, cz);
        let (off_x_t, lx_t) = chunk(nx, py, cy);
        // Row: same cz (color), ordered by cy. Col: same cy, ordered by cz.
        let row = comm.split(cz as u32, cy as i32);
        let col = comm.split(cy as u32, cz as i32);
        assert_eq!(row.size(), py);
        assert_eq!(col.size(), pz);
        assert_eq!(row.rank(), cy);
        assert_eq!(col.rank(), cz);
        Decomp {
            nx,
            ny,
            nz,
            py,
            pz,
            cy,
            cz,
            ly,
            lz,
            off_y,
            off_z,
            lx_t,
            off_x_t,
            row,
            col,
            world: comm.clone(),
        }
    }

    /// World rank of the process at grid coordinates `(cy, cz)`.
    pub fn rank_of(&self, cy: usize, cz: usize) -> usize {
        cz * self.py + cy
    }

    /// Neighbor ranks in y (periodic): (lower, upper).
    pub fn y_neighbors(&self) -> (usize, usize) {
        let lo = (self.cy + self.py - 1) % self.py;
        let hi = (self.cy + 1) % self.py;
        (self.rank_of(lo, self.cz), self.rank_of(hi, self.cz))
    }

    /// Neighbor ranks in z (non-periodic): (below, above); `None` at the
    /// walls.
    pub fn z_neighbors(&self) -> (Option<usize>, Option<usize>) {
        let below = (self.cz > 0).then(|| self.rank_of(self.cy, self.cz - 1));
        let above = (self.cz + 1 < self.pz).then(|| self.rank_of(self.cy, self.cz + 1));
        (below, above)
    }

    /// x-pencil y-chunk (start, len) of row-peer `cy`.
    pub fn y_chunk_of(&self, cy: usize) -> (usize, usize) {
        chunk(self.ny, self.py, cy)
    }

    /// y-pencil x-chunk (start, len) of row-peer `cy`.
    pub fn x_chunk_of(&self, cy: usize) -> (usize, usize) {
        chunk(self.nx, self.py, cy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_exactly() {
        for (n, p) in [(16usize, 4usize), (17, 4), (5, 3), (8, 1), (7, 7)] {
            let mut total = 0;
            let mut next = 0;
            for i in 0..p {
                let (s, l) = chunk(n, p, i);
                assert_eq!(s, next, "chunks must be contiguous");
                next = s + l;
                total += l;
            }
            assert_eq!(total, n);
        }
    }

    #[test]
    fn chunk_balance_within_one() {
        let lens: Vec<usize> = (0..5).map(|i| chunk(23, 5, i).1).collect();
        let min = *lens.iter().min().unwrap();
        let max = *lens.iter().max().unwrap();
        assert!(max - min <= 1);
    }
}
