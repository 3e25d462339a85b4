//! Explicit symmetric distance matrices, generic over the storage scalar.
//!
//! The paper notes (Section 7.3) that a matrix representation of the
//! complete graph would force a significant proportion of unnecessary data
//! to be shipped between machines, which is why its experiments compute
//! Euclidean distances on demand.  We still provide the matrix form: it is
//! the natural input when the metric is given directly as a weighted graph,
//! it backs [`crate::space::MatrixSpace`], and it is what the brute-force
//! optimum solver in `kcenter-core` consumes for small verification
//! instances.
//!
//! Like [`crate::FlatPoints`], the matrix is generic over the storage
//! [`Scalar`]: `DistanceMatrix<f32>` halves the bytes of the packed triangle
//! and of every comparison-space scan over it.  The precision contract
//! mirrors the flat store's: each entry is rounded **once** when it is
//! stored ([`Scalar::from_f64`]), [`DistanceMatrix::cmp_get`] exposes the
//! stored value for comparison-only scans, and [`DistanceMatrix::get`]
//! widens back to `f64` exactly — so a reduced-precision matrix carries only
//! the one-time input rounding of each pairwise distance, never accumulated
//! scan error.

use rayon::prelude::*;
use std::fmt;

use crate::scalar::Scalar;
use crate::space::MetricSpace;

/// A dense symmetric `n × n` matrix of pairwise distances with a zero
/// diagonal, stored as a packed upper triangle at storage precision `S`.
#[derive(Clone, PartialEq)]
pub struct DistanceMatrix<S: Scalar = f64> {
    n: usize,
    /// Packed strict upper triangle, row-major: entry `(i, j)` with `i < j`
    /// lives at `index(i, j)`.
    upper: Vec<S>,
}

impl<S: Scalar> DistanceMatrix<S> {
    /// Creates an all-zero matrix over `n` points.
    pub fn zeros(n: usize) -> Self {
        let len = n.saturating_sub(1) * n / 2;
        Self {
            n,
            upper: vec![S::ZERO; len],
        }
    }

    /// Builds the matrix by evaluating every pairwise distance of `space`,
    /// in parallel over rows.  Distances are computed with `f64`
    /// accumulation and rounded once into the storage scalar.
    ///
    /// Each row goes through the space's batch
    /// [`MetricSpace::distances_from`], which on coordinate-backed spaces
    /// rides the dispatched kernel backend (`kernel::simd`) — so the build
    /// is deterministic per `(precision, kernel)`, and bit-identical to the
    /// pre-dispatch behaviour under the default `scalar` backend.
    pub fn from_space<M: MetricSpace + ?Sized>(space: &M) -> Self {
        let n = space.len();
        let mut m = Self::zeros(n);
        if n < 2 {
            return m;
        }
        // Compute rows in parallel, then scatter into the packed triangle.
        // One shared id table serves every row's target slice, so the only
        // per-row allocation is the result vector itself.
        let ids: Vec<usize> = (0..n).collect();
        let rows: Vec<Vec<f64>> = (0..n - 1)
            .into_par_iter()
            .map(|i| space.distances_from(i, &ids[i + 1..]))
            .collect();
        for (i, row) in rows.into_iter().enumerate() {
            for (off, d) in row.into_iter().enumerate() {
                let j = i + 1 + off;
                m.set(i, j, d);
            }
        }
        m
    }

    /// Builds the matrix from a full `n × n` nested vector, rounding each
    /// entry once into the storage scalar.
    ///
    /// # Panics
    ///
    /// Panics if the input is not square, not symmetric (within `1e-9`), or
    /// has a non-zero diagonal.
    pub fn from_full(full: &[Vec<f64>]) -> Self {
        let n = full.len();
        let mut m = Self::zeros(n);
        for (i, row) in full.iter().enumerate() {
            assert_eq!(row.len(), n, "distance matrix must be square");
            assert!(row[i].abs() < 1e-9, "diagonal must be zero");
            for j in (i + 1)..n {
                assert!(
                    (row[j] - full[j][i]).abs() < 1e-9,
                    "distance matrix must be symmetric"
                );
                m.set(i, j, row[j]);
            }
        }
        m
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix covers zero points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Storage-precision name (`"f32"` / `"f64"`), for reports.
    pub fn precision_name(&self) -> &'static str {
        S::NAME
    }

    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n);
        // Offset of row i in the packed strict upper triangle.
        i * self.n - i * (i + 1) / 2 + (j - i - 1)
    }

    /// Distance between points `i` and `j`, widened to `f64` (exact: both
    /// storage scalars embed losslessly, so this carries only the one-time
    /// storage rounding of the entry).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.cmp_get(i, j).to_f64()
    }

    /// The stored entry at storage precision — the comparison-space view
    /// scans use when only the ordering matters (an `f32` matrix stays
    /// entirely in `f32` here).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn cmp_get(&self, i: usize, j: usize) -> S {
        assert!(i < self.n && j < self.n, "index out of bounds");
        if i == j {
            S::ZERO
        } else if i < j {
            self.upper[self.index(i, j)]
        } else {
            self.upper[self.index(j, i)]
        }
    }

    /// Sets the distance between `i` and `j` (and symmetrically `j`, `i`),
    /// rounding once into the storage scalar.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices, on `i == j` with a non-zero value, or
    /// on negative / non-finite values (including values whose storage
    /// rounding overflows the scalar, e.g. `1e300` at `f32`).
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.n && j < self.n, "index out of bounds");
        assert!(
            value.is_finite() && value >= 0.0,
            "distances must be finite and non-negative"
        );
        let stored = S::from_f64(value);
        assert!(
            stored.is_finite(),
            "distance {value} overflows the {} storage scalar",
            S::NAME
        );
        if i == j {
            assert_eq!(value, 0.0, "diagonal entries must stay zero");
            return;
        }
        let idx = if i < j {
            self.index(i, j)
        } else {
            self.index(j, i)
        };
        self.upper[idx] = stored;
    }

    /// The largest pairwise distance (the diameter of the point set), or
    /// `0.0` for fewer than two points.  The max is taken in storage space
    /// (order-preserving) and widened once.
    pub fn diameter(&self) -> f64 {
        self.upper.iter().copied().fold(S::ZERO, S::max).to_f64()
    }

    /// All pairwise distances in unspecified order (strict upper triangle),
    /// at storage precision.
    pub fn pairwise(&self) -> &[S] {
        &self.upper
    }

    /// Re-stores every entry at precision `T` (rounding to nearest when
    /// narrowing, lossless when widening) — the conversion benches use to
    /// compare both precisions over the same instance.
    pub fn to_precision<T: Scalar>(&self) -> DistanceMatrix<T> {
        DistanceMatrix {
            n: self.n,
            upper: self.upper.iter().map(|d| T::from_f64(d.to_f64())).collect(),
        }
    }

    /// Verifies the metric axioms: symmetry and the zero diagonal hold by
    /// construction, so this checks non-negativity (by construction too) and
    /// the triangle inequality within an absolute tolerance.  The check runs
    /// in `f64` on the widened entries regardless of the storage precision.
    ///
    /// Returns the first violated triple on failure.
    pub fn verify_metric(&self, tol: f64) -> Result<(), MetricViolation> {
        for i in 0..self.n {
            for j in 0..self.n {
                if i == j {
                    continue;
                }
                let dij = self.get(i, j);
                for k in 0..self.n {
                    if k == i || k == j {
                        continue;
                    }
                    let dik = self.get(i, k);
                    let dkj = self.get(k, j);
                    if dij > dik + dkj + tol {
                        return Err(MetricViolation {
                            i,
                            j,
                            k,
                            direct: dij,
                            via: dik + dkj,
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

impl<S: Scalar> fmt::Debug for DistanceMatrix<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DistanceMatrix<{}>(n={})", S::NAME, self.n)
    }
}

/// A witness that the triangle inequality fails: `d(i, j) > d(i, k) + d(k, j)`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricViolation {
    /// First endpoint.
    pub i: usize,
    /// Second endpoint.
    pub j: usize,
    /// Intermediate point.
    pub k: usize,
    /// The direct distance `d(i, j)`.
    pub direct: f64,
    /// The detour distance `d(i, k) + d(k, j)`.
    pub via: f64,
}

impl fmt::Display for MetricViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "triangle inequality violated: d({}, {}) = {} > {} = d({}, {}) + d({}, {})",
            self.i, self.j, self.direct, self.via, self.i, self.k, self.k, self.j
        )
    }
}

impl std::error::Error for MetricViolation {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;
    use crate::space::VecSpace;

    #[test]
    fn zeros_has_zero_everywhere() {
        let m = DistanceMatrix::<f64>::zeros(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m.get(i, j), 0.0);
            }
        }
    }

    #[test]
    fn set_and_get_are_symmetric() {
        let mut m = DistanceMatrix::<f64>::zeros(3);
        m.set(0, 2, 4.5);
        m.set(2, 1, 1.5);
        assert_eq!(m.get(0, 2), 4.5);
        assert_eq!(m.get(2, 0), 4.5);
        assert_eq!(m.get(1, 2), 1.5);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn f32_storage_rounds_once_and_widens_exactly() {
        let mut m = DistanceMatrix::<f32>::zeros(3);
        m.set(0, 1, 0.1);
        m.set(1, 2, 3.25);
        assert_eq!(m.precision_name(), "f32");
        // Comparison space is the stored f32 value …
        assert_eq!(m.cmp_get(0, 1), 0.1f32);
        assert_eq!(m.cmp_get(1, 0), 0.1f32);
        // … and get() widens it exactly (the only error is input rounding).
        assert_eq!(m.get(0, 1), 0.1f32 as f64);
        assert_eq!(m.get(1, 2), 3.25);
        assert_eq!(m.diameter(), 3.25);
    }

    #[test]
    fn to_precision_round_trips_exact_values() {
        let mut m = DistanceMatrix::<f64>::zeros(3);
        m.set(0, 1, 1.5);
        m.set(0, 2, 2.25);
        m.set(1, 2, 3.0);
        let narrow = m.to_precision::<f32>();
        assert_eq!(narrow.get(0, 2), 2.25);
        assert_eq!(narrow.to_precision::<f64>(), m);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_rejects_out_of_range() {
        DistanceMatrix::<f64>::zeros(2).get(0, 5);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn set_rejects_negative() {
        DistanceMatrix::<f64>::zeros(3).set(0, 1, -1.0);
    }

    #[test]
    #[should_panic(expected = "overflows the f32 storage scalar")]
    fn set_rejects_values_beyond_the_storage_range() {
        DistanceMatrix::<f32>::zeros(3).set(0, 1, 1e300);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn set_rejects_nonzero_diagonal() {
        DistanceMatrix::<f64>::zeros(3).set(1, 1, 2.0);
    }

    #[test]
    fn from_space_matches_direct_distances() {
        let pts = vec![
            Point::xy(0.0, 0.0),
            Point::xy(3.0, 4.0),
            Point::xy(6.0, 8.0),
        ];
        let space = VecSpace::new(pts);
        let m = DistanceMatrix::<f64>::from_space(&space);
        assert!((m.get(0, 1) - 5.0).abs() < 1e-12);
        assert!((m.get(1, 2) - 5.0).abs() < 1e-12);
        assert!((m.get(0, 2) - 10.0).abs() < 1e-12);
        assert!((m.diameter() - 10.0).abs() < 1e-12);
        // The f32 instantiation sees the same geometry up to input rounding.
        let m32 = DistanceMatrix::<f32>::from_space(&space);
        assert!((m32.get(0, 2) - 10.0).abs() < 1e-5);
    }

    #[test]
    fn from_space_handles_tiny_inputs() {
        let empty = VecSpace::new(vec![]);
        assert!(DistanceMatrix::<f64>::from_space(&empty).is_empty());
        let single = VecSpace::new(vec![Point::xy(1.0, 1.0)]);
        let m = DistanceMatrix::<f64>::from_space(&single);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn from_full_round_trip() {
        let full = vec![
            vec![0.0, 1.0, 2.0],
            vec![1.0, 0.0, 1.5],
            vec![2.0, 1.5, 0.0],
        ];
        let m = DistanceMatrix::<f64>::from_full(&full);
        for (i, row) in full.iter().enumerate() {
            for (j, &expected) in row.iter().enumerate() {
                assert!((m.get(i, j) - expected).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn from_full_rejects_asymmetry() {
        DistanceMatrix::<f64>::from_full(&[vec![0.0, 1.0], vec![2.0, 0.0]]);
    }

    #[test]
    fn verify_metric_accepts_euclidean_instances() {
        let pts = vec![
            Point::xy(0.0, 0.0),
            Point::xy(1.0, 0.0),
            Point::xy(0.5, 2.0),
            Point::xy(-1.0, 1.0),
        ];
        let m = DistanceMatrix::<f64>::from_space(&VecSpace::new(pts));
        assert!(m.verify_metric(1e-9).is_ok());
    }

    #[test]
    fn verify_metric_reports_violation() {
        let mut m = DistanceMatrix::<f64>::zeros(3);
        m.set(0, 1, 1.0);
        m.set(1, 2, 1.0);
        m.set(0, 2, 5.0);
        let v = m.verify_metric(1e-9).unwrap_err();
        assert_eq!((v.i, v.j), (0, 2));
        assert!(v.direct > v.via);
        assert!(v.to_string().contains("triangle inequality"));
    }

    #[test]
    fn pairwise_exposes_upper_triangle() {
        let mut m = DistanceMatrix::<f64>::zeros(3);
        m.set(0, 1, 1.0);
        m.set(0, 2, 2.0);
        m.set(1, 2, 3.0);
        let mut p = m.pairwise().to_vec();
        p.sort_by(f64::total_cmp);
        assert_eq!(p, vec![1.0, 2.0, 3.0]);
    }
}
