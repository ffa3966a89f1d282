//! BCSR: Block Compressed Sparse Row — a derived format (§III-A) "often
//! used when there are many dense sub-blocks in a sparse matrix".
//!
//! The matrix is tiled into `br × bc` blocks; any tile containing at least
//! one non-zero is stored densely. One column index per block instead of per
//! element cuts index traffic by `br * bc` for blocky matrices, at the price
//! of storing the zeros inside partially-filled blocks.

use crate::format::{ensure_workspace, MAX_SMSV_BLOCK};
use crate::{Format, MatrixFormat, RowScratch, Scalar, SparseVec, SparseVecView, TripletMatrix};

/// Block CSR matrix with run-time block shape.
#[derive(Debug, Clone, PartialEq)]
pub struct BcsrMatrix {
    rows: usize,
    cols: usize,
    br: usize,
    bc: usize,
    /// Block-row pointer: `block_ptr[bi]..block_ptr[bi+1]` indexes the
    /// blocks of block-row `bi`.
    block_ptr: Vec<usize>,
    /// Block-column index per stored block.
    block_col: Vec<usize>,
    /// Dense `br * bc` payloads, row-major within each block.
    blocks: Vec<Scalar>,
    nnz: usize,
}

impl BcsrMatrix {
    /// Builds from triplets with the given block shape.
    ///
    /// # Panics
    /// Panics if `br == 0 || bc == 0`.
    pub fn from_triplets(t: &TripletMatrix, br: usize, bc: usize) -> Self {
        assert!(br > 0 && bc > 0, "block dimensions must be positive");
        let t = t.compacted();
        let (rows, cols) = (t.rows(), t.cols());
        let n_brows = rows.div_ceil(br);
        // Group entries by (block_row, block_col); entries are row-major so
        // re-key and sort.
        let mut keyed: Vec<(usize, usize, usize, usize, Scalar)> =
            t.entries().iter().map(|&(r, c, v)| (r / br, c / bc, r, c, v)).collect();
        keyed.sort_unstable_by_key(|&(bi, bj, r, c, _)| (bi, bj, r, c));

        let mut block_ptr = vec![0usize; n_brows + 1];
        let mut block_col = Vec::new();
        let mut blocks: Vec<Scalar> = Vec::new();
        let mut cur: Option<(usize, usize)> = None;
        for &(bi, bj, r, c, v) in &keyed {
            if cur != Some((bi, bj)) {
                block_ptr[bi + 1] += 1;
                block_col.push(bj);
                blocks.extend(std::iter::repeat_n(0.0, br * bc));
                cur = Some((bi, bj));
            }
            let base = (block_col.len() - 1) * br * bc;
            blocks[base + (r % br) * bc + (c % bc)] = v;
        }
        for bi in 0..n_brows {
            block_ptr[bi + 1] += block_ptr[bi];
        }
        Self { rows, cols, br, bc, block_ptr, block_col, blocks, nnz: t.nnz() }
    }

    /// Block shape `(br, bc)`.
    #[inline]
    pub fn block_shape(&self) -> (usize, usize) {
        (self.br, self.bc)
    }

    /// Number of stored blocks.
    #[inline]
    pub fn n_blocks(&self) -> usize {
        self.block_col.len()
    }

    /// Fill ratio: nnz / stored slots. 1.0 means perfectly blocky.
    pub fn fill_ratio(&self) -> f64 {
        if self.blocks.is_empty() {
            1.0
        } else {
            self.nnz as f64 / self.blocks.len() as f64
        }
    }

    fn block_payload(&self, b: usize) -> &[Scalar] {
        &self.blocks[b * self.br * self.bc..(b + 1) * self.br * self.bc]
    }
}

impl MatrixFormat for BcsrMatrix {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn nnz(&self) -> usize {
        self.nnz
    }

    fn format(&self) -> Format {
        Format::Bcsr
    }

    fn get(&self, i: usize, j: usize) -> Scalar {
        let (bi, bj) = (i / self.br, j / self.bc);
        let range = self.block_ptr[bi]..self.block_ptr[bi + 1];
        match self.block_col[range.clone()].binary_search(&bj) {
            Ok(pos) => {
                let b = range.start + pos;
                self.block_payload(b)[(i % self.br) * self.bc + (j % self.bc)]
            }
            Err(_) => 0.0,
        }
    }

    fn row_sparse(&self, i: usize) -> SparseVec {
        let bi = i / self.br;
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for b in self.block_ptr[bi]..self.block_ptr[bi + 1] {
            let bj = self.block_col[b];
            let payload = self.block_payload(b);
            for jc in 0..self.bc {
                let j = bj * self.bc + jc;
                if j >= self.cols {
                    break;
                }
                let v = payload[(i % self.br) * self.bc + jc];
                if v != 0.0 {
                    indices.push(j);
                    values.push(v);
                }
            }
        }
        SparseVec::new(self.cols, indices, values)
    }

    fn row_view_in<'a>(&'a self, i: usize, scratch: &'a mut RowScratch) -> SparseVecView<'a> {
        // Blocks of a block-row are sorted by block column and columns
        // within a block ascend, so pushes arrive already sorted.
        let bi = i / self.br;
        scratch.clear();
        for b in self.block_ptr[bi]..self.block_ptr[bi + 1] {
            let bj = self.block_col[b];
            let payload = self.block_payload(b);
            for jc in 0..self.bc {
                let j = bj * self.bc + jc;
                if j >= self.cols {
                    break;
                }
                let v = payload[(i % self.br) * self.bc + jc];
                if v != 0.0 {
                    scratch.push(j, v);
                }
            }
        }
        scratch.view(self.cols)
    }

    fn smsv(&self, v: &SparseVec, out: &mut [Scalar]) {
        let mut workspace = Vec::new();
        self.smsv_view(v.as_view(), out, &mut workspace);
    }

    fn smsv_view(&self, v: SparseVecView<'_>, out: &mut [Scalar], workspace: &mut Vec<Scalar>) {
        assert_eq!(v.dim(), self.cols, "SMSV vector dimension mismatch");
        assert_eq!(out.len(), self.rows, "SMSV output length mismatch");
        let dense = ensure_workspace(workspace, self.cols);
        debug_assert!(dense.iter().all(|&w| w == 0.0));
        v.scatter(dense);
        out.fill(0.0);
        let n_brows = self.rows.div_ceil(self.br);
        for bi in 0..n_brows {
            for b in self.block_ptr[bi]..self.block_ptr[bi + 1] {
                let bj = self.block_col[b];
                let payload = self.block_payload(b);
                for ir in 0..self.br {
                    let i = bi * self.br + ir;
                    if i >= self.rows {
                        break;
                    }
                    let mut acc = 0.0;
                    for jc in 0..self.bc {
                        let j = bj * self.bc + jc;
                        if j >= self.cols {
                            break;
                        }
                        acc += payload[ir * self.bc + jc] * dense[j];
                    }
                    out[i] += acc;
                }
            }
        }
        v.unscatter(dense);
    }

    fn smsv_block(&self, vs: &[SparseVec], out: &mut [Scalar], workspace: &mut Vec<Scalar>) {
        assert_eq!(out.len(), self.rows * vs.len(), "smsv_block output length mismatch");
        // Blocked tile sweep: each stored block's dense payload is read once
        // per chunk and applied to cb right-hand sides. Per (block, row) a
        // stack array of cb lane accumulators gathers the tile's columns,
        // then folds into the interleaved row accumulator — the same
        // per-tile grouping as the per-vector kernel, so every lane's sum
        // is bit-identical to it.
        let mut b0 = 0;
        while b0 < vs.len() {
            let cb = (vs.len() - b0).min(MAX_SMSV_BLOCK);
            if cb == 1 {
                // A single lane degenerates to the per-vector sweep; skip
                // the interleaved workspace and its writeback entirely.
                let dst = &mut out[b0 * self.rows..(b0 + 1) * self.rows];
                self.smsv_view(vs[b0].as_view(), dst, workspace);
                b0 += 1;
                continue;
            }
            let chunk = &vs[b0..b0 + cb];
            let ws = ensure_workspace(workspace, (self.cols + self.rows) * cb);
            debug_assert!(ws.iter().all(|&w| w == 0.0));
            let (scat, acc) = ws.split_at_mut(self.cols * cb);
            for (bi, v) in chunk.iter().enumerate() {
                assert_eq!(v.dim(), self.cols, "SMSV vector dimension mismatch");
                for (j, x) in v.iter() {
                    scat[j * cb + bi] = x;
                }
            }
            let n_brows = self.rows.div_ceil(self.br);
            for brow in 0..n_brows {
                for b in self.block_ptr[brow]..self.block_ptr[brow + 1] {
                    let bj = self.block_col[b];
                    let payload = self.block_payload(b);
                    for ir in 0..self.br {
                        let i = brow * self.br + ir;
                        if i >= self.rows {
                            break;
                        }
                        let mut tile = [0.0 as Scalar; MAX_SMSV_BLOCK];
                        for jc in 0..self.bc {
                            let j = bj * self.bc + jc;
                            if j >= self.cols {
                                break;
                            }
                            let x = payload[ir * self.bc + jc];
                            let lane = &scat[j * cb..(j + 1) * cb];
                            for (t, &w) in tile[..cb].iter_mut().zip(lane) {
                                *t += x * w;
                            }
                        }
                        let a = &mut acc[i * cb..(i + 1) * cb];
                        for (ab, &t) in a.iter_mut().zip(&tile[..cb]) {
                            *ab += t;
                        }
                    }
                }
            }
            for i in 0..self.rows {
                for bi in 0..cb {
                    out[(b0 + bi) * self.rows + i] = acc[i * cb + bi];
                    acc[i * cb + bi] = 0.0;
                }
            }
            for (bi, v) in chunk.iter().enumerate() {
                for &j in v.indices() {
                    scat[j * cb + bi] = 0.0;
                }
            }
            b0 += cb;
        }
    }

    fn spmv(&self, x: &[Scalar], out: &mut [Scalar]) {
        assert_eq!(x.len(), self.cols, "SpMV vector dimension mismatch");
        let v = SparseVec::from_dense(x);
        self.smsv(&v, out);
    }

    fn row_norms_sq(&self, out: &mut [Scalar]) {
        assert_eq!(out.len(), self.rows);
        out.fill(0.0);
        let n_brows = self.rows.div_ceil(self.br);
        for bi in 0..n_brows {
            for b in self.block_ptr[bi]..self.block_ptr[bi + 1] {
                let payload = self.block_payload(b);
                for ir in 0..self.br {
                    let i = bi * self.br + ir;
                    if i >= self.rows {
                        break;
                    }
                    for jc in 0..self.bc {
                        let v = payload[ir * self.bc + jc];
                        out[i] += v * v;
                    }
                }
            }
        }
    }

    fn to_triplets(&self) -> TripletMatrix {
        let mut t = TripletMatrix::with_capacity(self.rows, self.cols, self.nnz);
        let n_brows = self.rows.div_ceil(self.br);
        for bi in 0..n_brows {
            for b in self.block_ptr[bi]..self.block_ptr[bi + 1] {
                let bj = self.block_col[b];
                let payload = self.block_payload(b);
                for ir in 0..self.br {
                    let i = bi * self.br + ir;
                    if i >= self.rows {
                        break;
                    }
                    for jc in 0..self.bc {
                        let j = bj * self.bc + jc;
                        if j >= self.cols {
                            break;
                        }
                        let v = payload[ir * self.bc + jc];
                        if v != 0.0 {
                            t.push(i, j, v);
                        }
                    }
                }
            }
        }
        t.compact()
    }

    fn storage_bytes(&self) -> usize {
        (self.block_ptr.len() + self.block_col.len()) * std::mem::size_of::<usize>()
            + self.blocks.len() * std::mem::size_of::<Scalar>()
    }

    fn storage_elems(&self) -> usize {
        self.blocks.len() + self.block_col.len() + self.block_ptr.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BcsrMatrix {
        let t = TripletMatrix::from_entries(
            4,
            4,
            vec![
                (0, 0, 1.0),
                (0, 1, 2.0),
                (1, 0, 3.0),
                (1, 1, 4.0), // one full 2x2 block at (0,0)
                (3, 3, 5.0), // lone element in block (1,1)
            ],
        )
        .unwrap();
        BcsrMatrix::from_triplets(&t, 2, 2)
    }

    #[test]
    fn blocks_and_fill() {
        let m = sample();
        assert_eq!(m.n_blocks(), 2);
        assert_eq!(m.block_shape(), (2, 2));
        assert_eq!(m.fill_ratio(), 5.0 / 8.0);
    }

    #[test]
    fn get_inside_and_outside_blocks() {
        let m = sample();
        assert_eq!(m.get(1, 1), 4.0);
        assert_eq!(m.get(3, 3), 5.0);
        assert_eq!(m.get(3, 2), 0.0);
        assert_eq!(m.get(2, 0), 0.0);
    }

    #[test]
    fn smsv_matches_dense_reference() {
        let m = sample();
        let v = SparseVec::new(4, vec![0, 1, 3], vec![1.0, -1.0, 2.0]);
        let mut out = vec![0.0; 4];
        m.smsv(&v, &mut out);
        assert_eq!(out, vec![-1.0, -1.0, 0.0, 10.0]);
    }

    #[test]
    fn row_sparse_and_norms() {
        let m = sample();
        let r = m.row_sparse(1);
        assert_eq!(r.indices(), &[0, 1]);
        assert_eq!(r.values(), &[3.0, 4.0]);
        let mut out = vec![0.0; 4];
        m.row_norms_sq(&mut out);
        assert_eq!(out, vec![5.0, 25.0, 0.0, 25.0]);
    }

    #[test]
    fn triplet_round_trip() {
        let m = sample();
        let back = BcsrMatrix::from_triplets(&m.to_triplets(), 2, 2);
        assert_eq!(back, m);
    }

    #[test]
    fn handles_non_dividing_block_size() {
        // 3x5 matrix with 2x2 blocks: ragged edges must be respected.
        let t =
            TripletMatrix::from_entries(3, 5, vec![(2, 4, 7.0), (0, 0, 1.0)]).unwrap().compact();
        let m = BcsrMatrix::from_triplets(&t, 2, 2);
        assert_eq!(m.get(2, 4), 7.0);
        assert_eq!(m.to_triplets().entries(), t.entries());
        let v = SparseVec::new(5, vec![4], vec![3.0]);
        let mut out = vec![0.0; 3];
        m.smsv(&v, &mut out);
        assert_eq!(out, vec![0.0, 0.0, 21.0]);
    }
}
