//! 3-D field storage with ghost (halo) layers.
//!
//! PowerLLEL uses an x-pencil decomposition: the x extent is always
//! local; y and z are distributed, so ghost layers exist only in y and
//! z. Storage is row-major with x fastest (`idx = (k*sy + j)*sx + i`),
//! which keeps the x-direction stencils and FFTs cache-friendly.

/// A 3-D scalar field with `g` ghost layers in y and z.
#[derive(Debug, Clone, PartialEq)]
pub struct Field3 {
    /// Interior sizes.
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    /// Ghost width (y and z only).
    pub g: usize,
    /// Padded sizes.
    sx: usize,
    sy: usize,
    sz: usize,
    pub data: Vec<f64>,
}

impl Field3 {
    pub fn new(nx: usize, ny: usize, nz: usize, g: usize) -> Field3 {
        let (sx, sy, sz) = (nx, ny + 2 * g, nz + 2 * g);
        Field3 {
            nx,
            ny,
            nz,
            g,
            sx,
            sy,
            sz,
            data: vec![0.0; sx * sy * sz],
        }
    }

    /// Flat index of interior cell `(i, j, k)` (0-based interior
    /// coordinates; ghosts are reachable with `j`/`k` in
    /// `-g..n+g` via [`Field3::idx_g`]).
    #[inline]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny && k < self.nz);
        ((k + self.g) * self.sy + (j + self.g)) * self.sx + i
    }

    /// Flat index allowing ghost offsets: `j`/`k` range over
    /// `-(g as isize) .. (n + g) as isize`; `i` wraps periodically.
    #[inline]
    pub fn idx_g(&self, i: isize, j: isize, k: isize) -> usize {
        let i = i.rem_euclid(self.nx as isize) as usize;
        let j = (j + self.g as isize) as usize;
        let k = (k + self.g as isize) as usize;
        debug_assert!(j < self.sy && k < self.sz);
        (k * self.sy + j) * self.sx + i
    }

    #[inline]
    pub fn get(&self, i: isize, j: isize, k: isize) -> f64 {
        self.data[self.idx_g(i, j, k)]
    }

    #[inline]
    pub fn set(&mut self, i: isize, j: isize, k: isize, v: f64) {
        let ix = self.idx_g(i, j, k);
        self.data[ix] = v;
    }

    /// Fill the interior from a function of *global* coordinates given
    /// this rank's offsets.
    pub fn fill(&mut self, off_y: usize, off_z: usize, f: impl Fn(usize, usize, usize) -> f64) {
        for k in 0..self.nz {
            for j in 0..self.ny {
                for i in 0..self.nx {
                    let ix = self.idx(i, j, k);
                    self.data[ix] = f(i, j + off_y, k + off_z);
                }
            }
        }
    }

    /// Max |difference| over interiors.
    pub fn max_diff(&self, other: &Field3) -> f64 {
        assert_eq!((self.nx, self.ny, self.nz), (other.nx, other.ny, other.nz));
        let mut m: f64 = 0.0;
        for k in 0..self.nz {
            for j in 0..self.ny {
                for i in 0..self.nx {
                    m = m
                        .max((self.data[self.idx(i, j, k)] - other.data[other.idx(i, j, k)]).abs());
                }
            }
        }
        m
    }

    /// Interior L2 norm.
    pub fn norm2(&self) -> f64 {
        let mut s = 0.0;
        for k in 0..self.nz {
            for j in 0..self.ny {
                for i in 0..self.nx {
                    let v = self.data[self.idx(i, j, k)];
                    s += v * v;
                }
            }
        }
        s.sqrt()
    }

    /// The x line at `(j, k)` (ghost coordinates, as in
    /// [`Field3::idx_g`]).
    #[inline]
    pub fn row(&self, j: isize, k: isize) -> &[f64] {
        let at = self.idx_g(0, j, k);
        &self.data[at..at + self.nx]
    }

    /// Mutable form of [`Field3::row`].
    #[inline]
    pub fn row_mut(&mut self, j: isize, k: isize) -> &mut [f64] {
        let at = self.idx_g(0, j, k);
        &mut self.data[at..at + self.nx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interior_indexing_round_trip() {
        let mut f = Field3::new(4, 3, 2, 1);
        f.set(2, 1, 1, 7.5);
        assert_eq!(f.get(2, 1, 1), 7.5);
        assert_eq!(f.data[f.idx(2, 1, 1)], 7.5);
    }

    #[test]
    fn ghost_indexing_reaches_halos() {
        let mut f = Field3::new(4, 3, 2, 2);
        f.set(0, -2, 0, 1.0);
        f.set(0, 4, 1, 2.0); // ny + g - 1 = 3 + 1
        f.set(0, 0, -1, 3.0);
        assert_eq!(f.get(0, -2, 0), 1.0);
        assert_eq!(f.get(0, 4, 1), 2.0);
        assert_eq!(f.get(0, 0, -1), 3.0);
    }

    #[test]
    fn x_wraps_periodically() {
        let mut f = Field3::new(4, 2, 2, 1);
        f.set(0, 0, 0, 9.0);
        assert_eq!(f.get(4, 0, 0), 9.0);
        assert_eq!(f.get(-4, 0, 0), 9.0);
        f.set(3, 1, 1, 5.0);
        assert_eq!(f.get(-1, 1, 1), 5.0);
    }

    #[test]
    fn fill_uses_global_coordinates() {
        let mut f = Field3::new(2, 2, 2, 1);
        f.fill(10, 20, |i, j, k| (i + j * 100 + k * 10000) as f64);
        assert_eq!(f.get(1, 0, 0), 1.0 + 1000.0 + 200000.0);
        assert_eq!(f.get(0, 1, 1), 1100.0 + 210000.0);
    }

    #[test]
    fn rows_are_x_lines_and_reach_ghosts() {
        let mut f = Field3::new(3, 4, 2, 1);
        f.fill(0, 0, |i, j, k| (i + 10 * j + 100 * k) as f64);
        assert_eq!(f.row(2, 1), &[120.0, 121.0, 122.0]);
        f.row_mut(-1, 2).copy_from_slice(&[7.0, 8.0, 9.0]);
        assert_eq!(f.get(1, -1, 2), 8.0);
        assert_eq!(f.row(4, -1).len(), 3);
    }

    #[test]
    fn norms() {
        let mut f = Field3::new(2, 2, 1, 1);
        f.fill(0, 0, |_, _, _| 2.0);
        assert!((f.norm2() - 4.0).abs() < 1e-12);
        let g = Field3::new(2, 2, 1, 1);
        assert_eq!(f.max_diff(&g), 2.0);
    }
}
