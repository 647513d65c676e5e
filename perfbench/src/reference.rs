//! The reference computation every timing is divided by.
//!
//! One reference solve is a Levinson–Durbin solve of the KMS system
//! `T x = b`, `T(i,j) = ρ^|i−j|`, written here in plain Rust and sharing
//! no code with the workspace crates. Its working set is four vectors
//! of the reference order (at most 320 KiB at the orders used here),
//! which stays inside a 2 MiB L2 cache, so what ran before it barely
//! changes its time. Dividing an operation's time by a
//! reference solve run right next to it cancels the host's speed phases.

use std::hint::black_box;
use std::time::Instant;

/// KMS parameter of the reference system. `ρ^k` stays a normal number
/// up to `k` ≈ 13 800, above every reference order used here, so no
/// product in the solve is subnormal.
const RHO: f64 = 0.95;

/// A reference system of fixed order with preallocated buffers, so a
/// timed solve allocates nothing.
pub struct Reference {
    row: Vec<f64>,
    b: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    /// Pairs timed so far; decides which side of the next pair runs first.
    pairs: u64,
}

impl Reference {
    pub fn new(order: usize) -> Self {
        assert!(order >= 2, "reference order must be at least 2");
        let row = kms_row(order, RHO);
        let b = (0..order).map(|i| 1.0 + (i % 7) as f64 / 7.0).collect();
        Reference {
            row,
            b,
            x: vec![0.0; order],
            y: vec![0.0; order],
            pairs: 0,
        }
    }

    pub fn order(&self) -> usize {
        self.row.len()
    }

    /// One reference solve; returns a value derived from the solution
    /// so the work cannot be optimized away.
    pub fn solve(&mut self) -> f64 {
        levinson_into(
            black_box(&self.row),
            black_box(&self.b),
            &mut self.x,
            &mut self.y,
        );
        black_box(self.x[self.x.len() / 2])
    }

    /// Time `op` next to one reference solve, alternating which of the
    /// two runs first. Returns the operation's output, its time and the
    /// reference's time, both in seconds.
    pub fn pair<R>(&mut self, op: impl FnOnce() -> R) -> (R, f64, f64) {
        let ref_first = self.pairs.is_multiple_of(2);
        self.pairs += 1;
        let mut ref_s = 0.0;
        if ref_first {
            ref_s = self.timed_solve();
        }
        let t0 = Instant::now();
        let out = black_box(op());
        let op_s = t0.elapsed().as_secs_f64();
        if !ref_first {
            ref_s = self.timed_solve();
        }
        (out, op_s, ref_s)
    }

    fn timed_solve(&mut self) -> f64 {
        let t0 = Instant::now();
        self.solve();
        t0.elapsed().as_secs_f64()
    }

    /// Check the reference solver against the closed-form inverse of
    /// the KMS matrix at this reference's order. A broken reference
    /// fails the run instead of skewing every ratio.
    pub fn check(&mut self) -> Result<f64, String> {
        let n = self.order();
        levinson_into(&self.row, &self.b, &mut self.x, &mut self.y);
        let exact = kms_inverse_apply(RHO, &self.b);
        let err = max_abs_diff(&self.x, &exact) / max_abs(&exact);
        // κ∞(KMS) ≤ ((1+ρ)/(1−ρ))²; Levinson is weakly stable for SPD
        // Toeplitz systems, so its error is a modest multiple of κ·ε.
        let kappa = ((1.0 + RHO) / (1.0 - RHO)).powi(2);
        let bound = 64.0 * (n as f64).sqrt() * kappa * f64::EPSILON;
        if err.is_finite() && err <= bound {
            Ok(err)
        } else {
            Err(format!(
                "reference Levinson solve of the order-{n} KMS system is off the closed form: \
                 relative error {err:.3e} > bound {bound:.3e}"
            ))
        }
    }
}

/// First row of the KMS matrix, `ρ^k`.
pub fn kms_row(n: usize, rho: f64) -> Vec<f64> {
    let mut row = Vec::with_capacity(n);
    let mut v = 1.0;
    for _ in 0..n {
        row.push(v);
        v *= rho;
    }
    row
}

/// `T⁻¹ b` for the KMS matrix from its closed-form tridiagonal inverse:
/// `T⁻¹ = (1−ρ²)⁻¹ · tridiag(−ρ; 1, 1+ρ², …, 1+ρ², 1; −ρ)`.
pub fn kms_inverse_apply(rho: f64, b: &[f64]) -> Vec<f64> {
    let n = b.len();
    let s = 1.0 / (1.0 - rho * rho);
    (0..n)
        .map(|i| {
            let diag = if i == 0 || i == n - 1 {
                1.0
            } else {
                1.0 + rho * rho
            };
            let mut v = diag * b[i];
            if i > 0 {
                v -= rho * b[i - 1];
            }
            if i + 1 < n {
                v -= rho * b[i + 1];
            }
            s * v
        })
        .collect()
}

/// Levinson–Durbin solve of the symmetric Toeplitz system with first
/// row `row` (Golub & Van Loan, Algorithm 4.7.3). The row must have a
/// unit diagonal. `y` is scratch of the same length. Returns `false`
/// when a leading minor is not positive, i.e. the matrix is not SPD.
pub fn levinson_into(row: &[f64], b: &[f64], x: &mut [f64], y: &mut [f64]) -> bool {
    let n = row.len();
    assert!(n > 0 && b.len() == n && x.len() == n && y.len() == n);
    assert!(row[0] == 1.0, "Levinson expects a unit diagonal");
    let r = &row[1..];
    x[0] = b[0];
    if n == 1 {
        return true;
    }
    y[0] = -r[0];
    let mut alpha = -r[0];
    let mut beta = 1.0;
    for k in 1..n {
        beta *= 1.0 - alpha * alpha;
        if beta <= 0.0 || !beta.is_finite() {
            return false;
        }
        // μ = (b_k − r(1:k)ᵀ x(k−1:−1:0)) / β
        let mu = (b[k] - dot_reversed(&r[..k], &x[..k])) / beta;
        for (xi, yi) in x[..k].iter_mut().zip(y[..k].iter().rev()) {
            *xi += mu * yi;
        }
        x[k] = mu;
        if k + 1 < n {
            alpha = (-r[k] - dot_reversed(&r[..k], &y[..k])) / beta;
            // z(i) = y(i) + α y(k−1−i), updated in symmetric pairs.
            let (mut lo, mut hi) = (0, k - 1);
            while lo < hi {
                let (a, c) = (y[lo], y[hi]);
                y[lo] = a + alpha * c;
                y[hi] = c + alpha * a;
                lo += 1;
                hi -= 1;
            }
            if lo == hi {
                y[lo] += alpha * y[lo];
            }
            y[k] = alpha;
        }
    }
    true
}

/// `Σ a[i] · b[len−1−i]`.
fn dot_reversed(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter().rev()).map(|(p, q)| p * q).sum()
}

pub fn max_abs(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |m, &a| m.max(a.abs()))
}

pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .fold(0.0, |m, (&p, &q)| m.max((p - q).abs()))
}
