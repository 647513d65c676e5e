//! Seeded inputs and the independent checks on outputs.
//!
//! Everything here is plain Rust over plain vectors: the operators are
//! generated, multiplied and judged without calling the program, which
//! only ever receives the finished generators and right-hand sides.

use crate::reference::{levinson_into, max_abs, max_abs_diff};
use bs_matrix::Matrix;
use bs_toeplitz::SymBlockToeplitz;

/// SplitMix64: a small, seedable, platform-independent generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn vector(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.range(-1.0, 1.0)).collect()
    }
}

/// A symmetric (block) Toeplitz operator as the benchmark sees it: the
/// first block row in plain column-major storage, plus a bound on its
/// 2-norm condition number derived from how it was built.
#[derive(Clone)]
pub struct Operator {
    /// Structural block size `m`.
    pub m: usize,
    /// `blocks[d]` is the column-major `m × m` block at block offset `d`.
    pub blocks: Vec<Vec<f64>>,
    /// Upper bound on (or, for circulants, the exact value of) κ₂.
    pub kappa: f64,
}

impl Operator {
    pub fn order(&self) -> usize {
        self.m * self.blocks.len()
    }

    /// The first row of a scalar (`m = 1`) operator.
    pub fn scalar_row(&self) -> Vec<f64> {
        assert_eq!(self.m, 1, "scalar row of a block operator");
        self.blocks.iter().map(|b| b[0]).collect()
    }

    /// Hand the generator to the program.
    pub fn to_program(&self) -> SymBlockToeplitz {
        let m = self.m;
        SymBlockToeplitz::new(
            self.blocks
                .iter()
                .map(|b| Matrix::from_fn(m, m, |i, j| b[j * m + i]))
                .collect(),
        )
    }

    /// Entry `(i, j)` of the full matrix: block `(I, J)` with `J ≥ I` is
    /// `blocks[J − I]`, below the diagonal its transpose.
    fn entry(&self, i: usize, j: usize) -> f64 {
        let m = self.m;
        let (bi, bj) = (i / m, j / m);
        let (ri, rj) = (i % m, j % m);
        if bj >= bi {
            self.blocks[bj - bi][rj * m + ri]
        } else {
            self.blocks[bi - bj][ri * m + rj]
        }
    }

    /// `y = T x` by the definition, row by row: the benchmark's own
    /// Toeplitz product, independent of the program's matvec and FFT.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let n = self.order();
        assert_eq!(x.len(), n);
        if self.m == 1 {
            let row = self.scalar_row();
            return (0..n)
                .map(|i| {
                    let mut s = 0.0;
                    for (j, &xj) in x.iter().enumerate() {
                        s += row[i.abs_diff(j)] * xj;
                    }
                    s
                })
                .collect();
        }
        let (m, p) = (self.m, self.blocks.len());
        let mut y = vec![0.0; n];
        for bi in 0..p {
            let yi = &mut y[bi * m..(bi + 1) * m];
            for bj in 0..p {
                let xj = &x[bj * m..(bj + 1) * m];
                if bj >= bi {
                    // y_I += B_{J−I} x_J, B column-major.
                    let blk = &self.blocks[bj - bi];
                    for (c, &xc) in xj.iter().enumerate() {
                        for (r, yr) in yi.iter_mut().enumerate() {
                            *yr += blk[c * m + r] * xc;
                        }
                    }
                } else {
                    // y_I += B_{I−J}ᵀ x_J.
                    let blk = &self.blocks[bi - bj];
                    for (r, yr) in yi.iter_mut().enumerate() {
                        let col = &blk[r * m..(r + 1) * m];
                        *yr += col.iter().zip(xj).map(|(a, b)| a * b).sum::<f64>();
                    }
                }
            }
        }
        y
    }

    /// `‖T‖∞`, the largest absolute row sum.
    pub fn norm_inf(&self) -> f64 {
        let n = self.order();
        (0..n)
            .map(|i| (0..n).map(|j| self.entry(i, j).abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }
}

/// A scalar SPD operator: a positive mixture of KMS matrices,
/// `t_k = Σ_j a_j ρ_j^k`. Each KMS term is SPD with spectrum inside
/// `[(1−|ρ|)/(1+|ρ|), (1+|ρ|)/(1−|ρ|)]`, so the mixture's κ₂ is bounded
/// by the ratio of the weighted end points. `|ρ_j| ≥ 0.9` keeps every
/// `ρ^k` at order ≤ 2048 far above the subnormal range.
pub fn kms_mixture(rng: &mut Rng, n: usize) -> Operator {
    let mut row = vec![0.0; n];
    let (mut lo, mut hi) = (0.0, 0.0);
    for _ in 0..3 {
        let a = rng.range(0.5, 1.5);
        let mag = rng.range(0.9, 0.97);
        let rho = if rng.unit() < 0.5 { -mag } else { mag };
        let mut v = a;
        for t in row.iter_mut() {
            *t += v;
            v *= rho;
        }
        lo += a * (1.0 - mag) / (1.0 + mag);
        hi += a * (1.0 + mag) / (1.0 - mag);
    }
    Operator {
        m: 1,
        blocks: row.into_iter().map(|t| vec![t]).collect(),
        kappa: hi / lo,
    }
}

/// A block SPD operator: the covariance of a stationary vector AR(1)
/// process `x_{k+1} = A x_k + w_k`, `w ~ N(0, Q)`, with `Q = 0.1 I + B Bᵀ`
/// and `‖A‖₂ ≤ ‖A‖_F = radius`. Block `d` is `P (Aᵀ)^d` with
/// `P = A P Aᵀ + Q`. The spectrum lies in the range of the spectral
/// density, so `κ₂ ≤ λmax(Q)/λmin(Q) · ((1+radius)/(1−radius))²`.
pub fn ar1_block(rng: &mut Rng, m: usize, p: usize, radius: f64) -> Operator {
    let mut a: Vec<f64> = (0..m * m).map(|_| rng.range(-1.0, 1.0)).collect();
    let fro = a.iter().map(|v| v * v).sum::<f64>().sqrt();
    a.iter_mut().for_each(|v| *v *= radius / fro);
    let b: Vec<f64> = (0..m * m).map(|_| rng.range(-0.3, 0.3)).collect();
    // Q = 0.1 I + B Bᵀ.
    let mut q = mat_mul(m, &b, &transpose(m, &b));
    for i in 0..m {
        q[i * m + i] += 0.1;
    }
    let lambda_max_q = 0.1 + b.iter().map(|v| v * v).sum::<f64>();
    // P = A P Aᵀ + Q by fixed point; contracts at rate radius².
    let at = transpose(m, &a);
    let mut pm = q.clone();
    for _ in 0..1000 {
        let mut next = mat_mul(m, &mat_mul(m, &a, &pm), &at);
        next.iter_mut().zip(&q).for_each(|(v, w)| *v += w);
        let diff = max_abs_diff(&next, &pm);
        pm = next;
        if diff <= 4.0 * f64::EPSILON * max_abs(&pm) {
            break;
        }
    }
    // Exact symmetry of the leading block.
    for i in 0..m {
        for j in 0..i {
            let s = 0.5 * (pm[j * m + i] + pm[i * m + j]);
            pm[j * m + i] = s;
            pm[i * m + j] = s;
        }
    }
    let mut blocks = Vec::with_capacity(p);
    let mut cur = pm;
    for _ in 0..p {
        let next = mat_mul(m, &cur, &at);
        blocks.push(cur);
        cur = next;
    }
    Operator {
        m,
        blocks,
        kappa: lambda_max_q / 0.1 * ((1.0 + radius) / (1.0 - radius)).powi(2),
    }
}

/// A symmetric *indefinite* scalar Toeplitz operator with a singular
/// leading 2×2 minor: a symmetric circulant `C` whose eigenvalues are
/// chosen directly (`λ_j = λ_{n−j}`, positive for `cos θ_j ≥ −½`,
/// negative otherwise, magnitudes drawn from `[1, 2]`). The negative
/// part is scaled so that `c₀ = c₁`, which makes the leading minor
/// `[[c₀, c₁], [c₁, c₀]]` singular. A symmetric circulant is a symmetric
/// Toeplitz matrix, and its κ₂ is exactly `max|λ| / min|λ|`.
pub fn singular_minor_circulant(rng: &mut Rng, n: usize) -> Operator {
    assert!(n >= 8 && n.is_multiple_of(2));
    let half = n / 2;
    let cosines: Vec<f64> = (0..n)
        .map(|k| (2.0 * std::f64::consts::PI * k as f64 / n as f64).cos())
        .collect();
    let mut lambda = vec![0.0; n];
    for j in 0..=half {
        let v = rng.range(1.0, 2.0);
        let v = if cosines[j] >= -0.5 { v } else { -v };
        lambda[j] = v;
        lambda[(n - j) % n] = v;
    }
    // c₀ − c₁ = (1/n) Σ λ_j (1 − cos θ_j); scale the negative part so
    // the sum vanishes.
    let (mut pos, mut neg) = (0.0, 0.0);
    for (l, c) in lambda.iter().zip(&cosines) {
        if *l > 0.0 {
            pos += l * (1.0 - c);
        } else {
            neg -= l * (1.0 - c);
        }
    }
    let scale = pos / neg;
    lambda
        .iter_mut()
        .filter(|l| **l < 0.0)
        .for_each(|l| *l *= scale);
    // c_k = (1/n) Σ_j λ_j cos(2π jk/n).
    let row: Vec<f64> = (0..n)
        .map(|k| {
            let mut s = 0.0;
            for (j, l) in lambda.iter().enumerate() {
                s += l * cosines[(j * k) % n];
            }
            s / n as f64
        })
        .collect();
    let (lo, hi) = lambda.iter().fold((f64::MAX, 0.0f64), |(lo, hi), l| {
        (lo.min(l.abs()), hi.max(l.abs()))
    });
    let mut row = row;
    // The construction makes c₁ = c₀ up to rounding; pin it exactly.
    row[1] = row[0];
    row[n - 1] = row[0];
    Operator {
        m: 1,
        blocks: row.into_iter().map(|t| vec![t]).collect(),
        kappa: hi / lo,
    }
}

fn transpose(m: usize, a: &[f64]) -> Vec<f64> {
    let mut t = vec![0.0; m * m];
    for j in 0..m {
        for i in 0..m {
            t[i * m + j] = a[j * m + i];
        }
    }
    t
}

/// Column-major `m × m` product.
fn mat_mul(m: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut c = vec![0.0; m * m];
    for j in 0..m {
        for k in 0..m {
            let bkj = b[j * m + k];
            for i in 0..m {
                c[j * m + i] += a[k * m + i] * bkj;
            }
        }
    }
    c
}

/// A right-hand side with a seeded true solution: `b = T x*`.
pub struct Problem {
    pub x_true: Vec<f64>,
    pub b: Vec<f64>,
}

impl Problem {
    pub fn new(rng: &mut Rng, op: &Operator) -> Self {
        let x_true = rng.vector(op.order());
        let b = op.matvec(&x_true);
        Problem { x_true, b }
    }
}

/// Error measures of one computed solution.
#[derive(Clone, Copy, Debug, Default)]
pub struct Errors {
    /// `‖b − T x‖∞ / (‖T‖∞ ‖x‖∞ + ‖b‖∞)` in units of ε.
    pub backward_eps: f64,
    /// `‖x − x*‖∞ / ‖x*‖∞`.
    pub forward: f64,
}

/// Backward error in units of ε allowed for every checked solve. The
/// block Schur factorization of an SPD matrix is backward stable up to
/// a modest multiple of ε (Bojanczyk–Brent–de Hoog), and refinement
/// drives the perturbed indefinite solves to the same level.
pub const BACKWARD_EPS_MAX: f64 = 256.0;

/// Forward error allowed for a solve of `op`: weak stability bounds it
/// by a modest multiple of κ₂·ε, here `16 √n κ₂ ε`.
pub fn forward_bound(op: &Operator) -> f64 {
    16.0 * (op.order() as f64).sqrt() * op.kappa * f64::EPSILON
}

pub fn errors(op: &Operator, norm_inf: f64, p: &Problem, x: &[f64]) -> Errors {
    let tx = op.matvec(x);
    let resid = max_abs_diff(&tx, &p.b);
    let denom = norm_inf * max_abs(x) + max_abs(&p.b);
    Errors {
        backward_eps: resid / denom / f64::EPSILON,
        forward: max_abs_diff(x, &p.x_true) / max_abs(&p.x_true),
    }
}

/// Whether a solve meets both error bounds.
pub fn within_bounds(op: &Operator, e: &Errors) -> bool {
    e.backward_eps.is_finite()
        && e.backward_eps <= BACKWARD_EPS_MAX
        && e.forward.is_finite()
        && e.forward <= forward_bound(op)
}

/// The benchmark's own Levinson solution of a scalar SPD problem.
pub fn levinson_solution(op: &Operator, b: &[f64]) -> Option<Vec<f64>> {
    let row = op.scalar_row();
    let d = row[0];
    let unit: Vec<f64> = row.iter().map(|v| v / d).collect();
    let scaled: Vec<f64> = b.iter().map(|v| v / d).collect();
    let n = row.len();
    let (mut x, mut y) = (vec![0.0; n], vec![0.0; n]);
    levinson_into(&unit, &scaled, &mut x, &mut y).then_some(x)
}
