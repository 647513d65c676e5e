//! The four workloads: their inputs, their operation, and the checks
//! every operation's output must pass.

use crate::inputs::{self, Errors, Operator, Problem, Rng};
use crate::reference::{max_abs, max_abs_diff, Reference};
use bs_core::{Factor, Factorization, PlanRequest};
use bs_toeplitz::SymBlockToeplitz;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ScalarSpd,
    BlockSpd,
    IndefRefine,
    ServeMixed,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::ScalarSpd,
        Kind::BlockSpd,
        Kind::IndefRefine,
        Kind::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ScalarSpd => "scalar_spd",
            Kind::BlockSpd => "block_spd",
            Kind::IndefRefine => "indef_refine",
            Kind::ServeMixed => "serve_mixed",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Order of this workload's reference solve, sized so one
    /// reference costs about as much as one operation.
    pub fn reference_order(self) -> usize {
        match self {
            Kind::ScalarSpd => 9800,
            Kind::BlockSpd => 7700,
            Kind::IndefRefine => 5300,
            Kind::ServeMixed => 724,
        }
    }

    /// Operators in the workload's resident set.
    pub fn operators(self) -> usize {
        match self {
            Kind::ScalarSpd | Kind::BlockSpd | Kind::ServeMixed => 4,
            Kind::IndefRefine => 3,
        }
    }

    /// Seeded right-hand sides per operator.
    pub fn problems(self) -> usize {
        match self {
            Kind::ScalarSpd | Kind::BlockSpd => 1,
            Kind::IndefRefine => 4,
            // Four requests' worth of four columns each.
            Kind::ServeMixed => 4 * SERVE_COLUMNS,
        }
    }

    /// A fresh operator of this workload's family.
    pub fn operator(self, rng: &mut Rng) -> Operator {
        match self {
            Kind::ScalarSpd => inputs::kms_mixture(rng, 2048),
            Kind::BlockSpd => {
                let radius = rng.range(0.6, 0.8);
                inputs::ar1_block(rng, 16, 128, radius)
            }
            Kind::IndefRefine => inputs::singular_minor_circulant(rng, 2048),
            Kind::ServeMixed => {
                let radius = rng.range(0.6, 0.8);
                inputs::ar1_block(rng, 8, 64, radius)
            }
        }
    }
}

/// Right-hand-side columns per serve request.
pub const SERVE_COLUMNS: usize = 4;

/// Seeded streams, so each kind of input is independent of the others.
pub const STREAM_OPERATORS: u64 = 1;
pub const STREAM_PROBLEMS: u64 = 2;
pub const STREAM_LEDGER: u64 = 3;
pub const STREAM_CLIENT: u64 = 100;

/// Engine work runs on one worker thread with the default analytic
/// planner and the native kernel.
pub fn plan_request() -> PlanRequest {
    PlanRequest {
        threads: Some(1),
        ..PlanRequest::default()
    }
}

/// One operator with everything the checks need.
pub struct Case {
    pub op: Operator,
    pub t: SymBlockToeplitz,
    pub norm_inf: f64,
    pub problems: Vec<Problem>,
    /// The benchmark's own Levinson solution per problem (scalar SPD).
    pub levinson: Vec<Vec<f64>>,
    /// The resident factor of `indef_refine`.
    pub factor: Option<Factor>,
}

impl Case {
    /// `op` with `count` seeded problems.
    pub fn new(kind: Kind, op: Operator, rng: &mut Rng, count: usize) -> Result<Case, String> {
        let t = op.to_program();
        let norm_inf = op.norm_inf();
        let problems: Vec<Problem> = (0..count).map(|_| Problem::new(rng, &op)).collect();
        let levinson = if kind == Kind::ScalarSpd {
            problems
                .iter()
                .map(|p| {
                    inputs::levinson_solution(&op, &p.b)
                        .ok_or_else(|| "Levinson breakdown on an SPD input".to_string())
                })
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        let factor = if kind == Kind::IndefRefine {
            let f = Factor::with_plan_request(&t, &plan_request())
                .map_err(|e| format!("indefinite factorization failed: {e}"))?;
            match f.factorization() {
                Factorization::Indefinite(fi)
                    if fi.perturbations.len() == 1 && fi.exchanges > 0 => {}
                _ => {
                    return Err("singular-minor operator did not factor with row \
                                exchanges and exactly one perturbation"
                        .to_string())
                }
            }
            Some(f)
        } else {
            None
        };
        Ok(Case {
            op,
            t,
            norm_inf,
            problems,
            levinson,
            factor,
        })
    }

    /// The seeded operator set of a workload.
    pub fn set(kind: Kind, seed: u64) -> Result<Vec<Case>, String> {
        let mut ops = Rng::new(seed, STREAM_OPERATORS);
        let mut rhs = Rng::new(seed, STREAM_PROBLEMS);
        (0..kind.operators())
            .map(|_| Case::new(kind, kind.operator(&mut ops), &mut rhs, kind.problems()))
            .collect()
    }

    /// Errors of `x` against problem `i`, and whether every check holds.
    pub fn check(&self, i: usize, x: &[f64]) -> (bool, Errors) {
        let e = inputs::errors(&self.op, self.norm_inf, &self.problems[i], x);
        let mut ok = inputs::within_bounds(&self.op, &e);
        if let Some(lev) = self.levinson.get(i) {
            let diff = max_abs_diff(x, lev) / max_abs(lev);
            ok &= diff <= 2.0 * inputs::forward_bound(&self.op);
        }
        (ok, e)
    }
}

/// One engine operation: its output, or the program's error.
pub fn engine_op(kind: Kind, case: &Case, i: usize) -> Result<Vec<f64>, bs_core::Error> {
    let b = &case.problems[i].b;
    match kind {
        Kind::ScalarSpd | Kind::BlockSpd => {
            Factor::with_plan_request(&case.t, &plan_request())?.solve(b)
        }
        Kind::IndefRefine => case
            .factor
            .as_ref()
            .expect("indef_refine factors its operators in set-up")
            .solve(b),
        Kind::ServeMixed => unreachable!("serve_mixed operations are requests"),
    }
}

/// Everything an engine workload holds in its steady state.
pub struct EngineState {
    pub reference: Reference,
    pub cases: Vec<Case>,
}

/// Set up an engine workload: check the reference, build the inputs,
/// factor what the workload keeps resident, and run the first cold
/// operation on every operator.
pub fn engine_setup(kind: Kind, seed: u64) -> Result<EngineState, String> {
    let mut reference = Reference::new(kind.reference_order());
    reference.check()?;
    let cases = Case::set(kind, seed)?;
    for (ci, case) in cases.iter().enumerate() {
        let x = engine_op(kind, case, 0).map_err(|e| format!("cold operation failed: {e}"))?;
        let (ok, e) = case.check(0, &x);
        if !ok {
            return Err(format!(
                "cold operation on operator {ci} failed its check: {e:?}"
            ));
        }
    }
    Ok(EngineState { reference, cases })
}

/// The index pairs `(operator, problem)` of one whole round.
pub fn round(kind: Kind) -> Vec<(usize, usize)> {
    (0..kind.problems())
        .flat_map(|pi| (0..kind.operators()).map(move |ci| (ci, pi)))
        .collect()
}
