//! Column-major matrices in simulated memory.
//!
//! The paper's LU stores the matrix in plain column-major order and tiles
//! it *logically* into `bs x bs` blocks; the physical layout is what makes
//! the 512-block-size threshold appear: a block's column segment is
//! `bs * 8` bytes, so only for `bs >= 512` does a segment fill whole 4 kB
//! pages and migrate independently of its vertical neighbours (§4.5).
//!
//! [`SimMatrix`] couples the simulated allocation (a [`Buffer`]) with an
//! optional host-side `Vec<f64>` carrying real numerics so correctness can
//! be validated with actual math while large sweeps run "phantom"
//! (access-pattern only).

use numa_machine::{Machine, MemAccessKind, Op};
use numa_rt::Buffer;
use numa_vm::VirtAddr;
use std::cell::RefCell;
use std::rc::Rc;

/// Whether a matrix carries real data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataMode {
    /// Host-side `f64` storage; kernels do the real math.
    Real,
    /// Access patterns only (for large parameter sweeps).
    Phantom,
}

/// An `n x n` column-major matrix of `f64` in simulated memory.
#[derive(Clone)]
pub struct SimMatrix {
    /// The simulated allocation backing the matrix.
    pub buffer: Buffer,
    /// Dimension.
    pub n: u64,
    /// Host-side data in the same column-major layout (None in phantom
    /// mode). Shared so op-generating closures can do math in place.
    pub data: Option<Rc<RefCell<Vec<f64>>>>,
}

impl SimMatrix {
    /// Allocate an `n x n` matrix interleaved across all nodes (the
    /// paper's static policy for LU, §4.5).
    pub fn alloc_interleaved(machine: &mut Machine, n: u64, mode: DataMode) -> SimMatrix {
        let buffer = Buffer::alloc_interleaved(machine, n * n * 8);
        SimMatrix::from_buffer(buffer, n, mode)
    }

    /// Allocate with first-touch placement.
    pub fn alloc_first_touch(machine: &mut Machine, n: u64, mode: DataMode) -> SimMatrix {
        let buffer = Buffer::alloc(machine, n * n * 8);
        SimMatrix::from_buffer(buffer, n, mode)
    }

    fn from_buffer(buffer: Buffer, n: u64, mode: DataMode) -> SimMatrix {
        let data = match mode {
            DataMode::Real => Some(Rc::new(RefCell::new(vec![0.0; (n * n) as usize]))),
            DataMode::Phantom => None,
        };
        SimMatrix { buffer, n, data }
    }

    /// Fill the host data (if any) with a deterministic, well-conditioned,
    /// diagonally dominant matrix (safe for pivot-free LU).
    pub fn fill_diag_dominant(&self, seed: u64) {
        let Some(data) = &self.data else {
            return;
        };
        let n = self.n as usize;
        let mut d = data.borrow_mut();
        let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for j in 0..n {
            for i in 0..n {
                d[j * n + i] = next() / n as f64;
            }
        }
        for i in 0..n {
            d[i * n + i] += 2.0;
        }
    }

    /// Byte offset of element `(i, j)`.
    pub fn elem_offset(&self, i: u64, j: u64) -> u64 {
        (j * self.n + i) * 8
    }

    /// Simulated address of element `(i, j)`.
    pub fn elem_addr(&self, i: u64, j: u64) -> VirtAddr {
        self.buffer.addr + self.elem_offset(i, j)
    }

    /// A strided access op covering logical block `(bi, bj)` of size
    /// `bs x bs`: `bs` segments of `bs * 8` bytes, one per column, `n * 8`
    /// bytes apart.
    pub fn block_access(&self, bi: u64, bj: u64, bs: u64, traffic: u64, write: bool) -> Op {
        Op::AccessStrided {
            base: self.elem_addr(bi * bs, bj * bs),
            seg_bytes: bs * 8,
            stride: self.n * 8,
            count: bs,
            traffic,
            write,
            kind: MemAccessKind::Blocked,
        }
    }

    /// The contiguous byte range spanning columns `[j0, j1)` — used for
    /// the per-iteration next-touch hook over the trailing submatrix.
    pub fn columns_buffer(&self, j0: u64, j1: u64) -> Buffer {
        assert!(j0 <= j1 && j1 <= self.n);
        self.buffer.slice(j0 * self.n * 8, (j1 - j0) * self.n * 8)
    }

    /// Run real math on block `(bi, bj)` via `f`, which receives the full
    /// column-major storage, the dimension, and the block's element
    /// origin. No-op in phantom mode.
    pub fn with_data<F: FnOnce(&mut [f64], usize)>(&self, f: F) {
        if let Some(data) = &self.data {
            let n = self.n as usize;
            f(&mut data.borrow_mut(), n);
        }
    }

    /// Clone of the host data (test oracles). Panics in phantom mode.
    pub fn snapshot(&self) -> Vec<f64> {
        self.data
            .as_ref()
            .expect("snapshot requires DataMode::Real")
            .borrow()
            .clone()
    }

    /// Verify `self ~= L * U` where L/U are packed in `factored` (unit
    /// lower / upper), against `original`. Returns the max abs error.
    pub fn lu_residual(original: &[f64], factored: &[f64], n: usize) -> f64 {
        let mut worst = 0.0f64;
        for j in 0..n {
            for i in 0..n {
                // (L*U)[i][j] = sum_k L[i][k] U[k][j], L unit-diagonal.
                let kmax = i.min(j);
                let mut acc = 0.0;
                for k in 0..kmax {
                    acc += factored[k * n + i] * factored[j * n + k];
                }
                // k == i term (L[i][i] = 1) when i <= j;
                // k == j term (U[j][j]) folded when j < i.
                if i <= j {
                    acc += factored[j * n + i];
                } else {
                    acc += factored[j * n + i] * factored[j * n + j];
                }
                let err = (acc - original[j * n + i]).abs();
                worst = worst.max(err);
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_vm::PAGE_SIZE;

    #[test]
    fn layout_math() {
        let mut m = Machine::two_node();
        let a = SimMatrix::alloc_first_touch(&mut m, 512, DataMode::Phantom);
        assert_eq!(a.elem_offset(0, 0), 0);
        assert_eq!(a.elem_offset(1, 0), 8);
        assert_eq!(a.elem_offset(0, 1), 512 * 8);
        // One 512-double column is exactly one page.
        assert_eq!(a.elem_offset(0, 1) % PAGE_SIZE, 0);
    }

    #[test]
    fn block_access_shape() {
        let mut m = Machine::two_node();
        let a = SimMatrix::alloc_first_touch(&mut m, 256, DataMode::Phantom);
        match a.block_access(1, 2, 64, 1000, false) {
            Op::AccessStrided {
                base,
                seg_bytes,
                stride,
                count,
                ..
            } => {
                assert_eq!(base, a.elem_addr(64, 128));
                assert_eq!(seg_bytes, 64 * 8);
                assert_eq!(stride, 256 * 8);
                assert_eq!(count, 64);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn diag_dominant_fill_is_deterministic_and_dominant() {
        let mut m = Machine::two_node();
        let a = SimMatrix::alloc_first_touch(&mut m, 16, DataMode::Real);
        a.fill_diag_dominant(7);
        let b = SimMatrix::alloc_first_touch(&mut m, 16, DataMode::Real);
        b.fill_diag_dominant(7);
        assert_eq!(a.snapshot(), b.snapshot());
        let d = a.snapshot();
        for i in 0..16usize {
            let diag = d[i * 16 + i].abs();
            let off: f64 = (0..16usize)
                .filter(|k| *k != i)
                .map(|k| d[k * 16 + i].abs())
                .sum();
            assert!(diag > off, "row {i} not diagonally dominant");
        }
    }

    #[test]
    fn columns_buffer_covers_trailing() {
        let mut m = Machine::two_node();
        let a = SimMatrix::alloc_first_touch(&mut m, 64, DataMode::Phantom);
        let tail = a.columns_buffer(32, 64);
        assert_eq!(tail.addr, a.elem_addr(0, 32));
        assert_eq!(tail.len, 32 * 64 * 8);
    }

    #[test]
    fn phantom_mode_has_no_data() {
        let mut m = Machine::two_node();
        let a = SimMatrix::alloc_first_touch(&mut m, 8, DataMode::Phantom);
        assert!(a.data.is_none());
        let mut called = false;
        a.with_data(|_, _| called = true);
        assert!(!called);
    }
}
