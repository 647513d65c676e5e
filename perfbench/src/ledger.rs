//! The traced run: a per-layer ledger measured from outside.
//!
//! With `bs_probe::enable_all` on, each round calls every layer's public
//! function once on one of the workload's own operators, pairing every
//! call with a reference solve exactly like the timed run. Span self
//! times come from the spans the program already records
//! (`bs_probe::trace::take_events` folded by `Profile::from_events`),
//! counts from `bs_probe::metrics::total`. Each metric is the median of
//! its per-round samples.

use crate::inputs::Rng;
use crate::serving::{self, CACHE_CAPACITY, ROUND};
use crate::stats::{self, metric, Metric};
use crate::workload::{self, Case, Kind, SERVE_COLUMNS, STREAM_LEDGER};
use bs_core::{
    solver::solve_rtdr_in_place, FactorPlan, Factorization, IndefFactor, IndefOptions,
    PlanWorkspace, RefineOptions, SchurOptions,
};
use bs_matrix::blas3::{gemm, Trans};
use bs_matrix::Matrix;
use bs_probe::metrics::{self, Counter};
use bs_probe::{trace, Profile};
use bs_serve::proto::{self, Reader};
use bs_serve::{Client, OperatorCache, Server, ServerConfig, ServerHandle};
use bs_toeplitz::{build_generator, FastToeplitzMatVec, SymBlockToeplitz};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub struct Ledger {
    pub attempted: u64,
    /// Operations on which the program returned an error.
    pub failed: u64,
    /// Operations whose output missed a check.
    pub wrong: u64,
    pub metrics: Vec<Metric>,
}

/// Per-metric samples, one per round (or per request).
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn p50(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| stats::median(v))
    }
}

/// Everything a round needs about one operator, prepared once.
struct Prepared {
    plan: FactorPlan,
    /// The matrix the elimination builds its generator from (retiled to
    /// the plan's `m_s`).
    generator_input: SymBlockToeplitz,
    /// Four right-hand-side columns and the request body carrying the
    /// generator, as a client would send them.
    b4: Matrix,
    body: Vec<u8>,
    /// The local solution of `b4` the server's answers must equal.
    x4: Matrix,
}

/// The plan the workload's operation runs: the analytic planner for the
/// engine workloads, the server's default options for `serve_mixed`.
fn plan_for(kind: Kind, t: &SymBlockToeplitz) -> Result<FactorPlan, bs_core::Error> {
    match kind {
        Kind::ServeMixed => {
            FactorPlan::from_options(t, &SchurOptions::default(), &IndefOptions::default())
        }
        _ => FactorPlan::new(t, &workload::plan_request()),
    }
}

fn prepare(kind: Kind, case: &Case) -> Result<Prepared, String> {
    let plan = plan_for(kind, &case.t).map_err(|e| format!("plan failed: {e}"))?;
    let generator_input = if plan.block_size() == case.t.block_size() {
        case.t.clone()
    } else {
        case.t.retile(plan.block_size())
    };
    let n = case.op.order();
    let np = case.problems.len();
    let b4 = Matrix::from_fn(n, SERVE_COLUMNS, |i, c| case.problems[c % np].b[i]);
    let mut body = Vec::new();
    proto::put_generator(&mut body, &case.t);
    let local = bs_core::Factor::new(&case.t).map_err(|e| format!("local factor failed: {e}"))?;
    let mut x4 = Matrix::zeros(n, SERVE_COLUMNS);
    local
        .solve_cols_into(&b4, &mut x4)
        .map_err(|e| format!("local solve failed: {e}"))?;
    Ok(Prepared {
        plan,
        generator_input,
        b4,
        body,
        x4,
    })
}

/// `R` and the signature of a factorization, and its `RᵀDR` form for
/// `solve_refined` (`D = I` for an SPD factor).
fn factor_parts(f: &Factorization) -> (&Matrix, Option<&[i8]>, IndefFactor) {
    match f {
        Factorization::Spd(s) => (
            &s.r,
            None,
            IndefFactor {
                r: s.r.clone(),
                d: vec![1; s.r.rows()],
                perturbations: Vec::new(),
                exchanges: 0,
                max_reflector_norm: 1.0,
                m: s.m,
                p: s.p,
            },
        ),
        Factorization::Indefinite(fi) => (&fi.r, Some(&fi.d), fi.clone()),
    }
}

/// Self time, in seconds, of every span named `name` in `p`.
fn self_s(p: &Profile, name: &str) -> f64 {
    p.flat()
        .iter()
        .filter(|e| e.name == name)
        .map(|e| e.self_ns as f64 * 1e-9)
        .sum()
}

const COUNTERS: [Counter; 3] = [
    Counter::KernelDispatches,
    Counter::WorkspaceAllocs,
    Counter::PoolDispatches,
];

fn counters() -> [u64; 3] {
    COUNTERS.map(metrics::total)
}

/// The workload's server and one connection to it.
struct Wire {
    client: Client,
    handle: Option<ServerHandle>,
}

pub fn run(kind: Kind, seed: u64, seconds: u64) -> Result<Ledger, String> {
    // The same set-up as the timed run.
    let (mut reference, cases, serve_state, serve_client) = match kind {
        Kind::ServeMixed => {
            let mut st = serving::setup(seed, 0)?;
            let seat = st.seats.swap_remove(0);
            let cases = std::mem::take(&mut st.cases);
            (seat.reference, cases, Some(st), Some(seat.client))
        }
        _ => {
            let st = workload::engine_setup(kind, seed)?;
            (st.reference, st.cases, None, None)
        }
    };
    let prepared = cases
        .iter()
        .map(|c| prepare(kind, c))
        .collect::<Result<Vec<_>, _>>()?;
    // `serve_mixed` measures its own server; the engine workloads put
    // their operators behind a server of the same configuration.
    let mut wire = match serve_client {
        Some(client) => Wire {
            client,
            handle: None,
        },
        None => {
            let path = format!(".perfbench-{}-ledger.sock", std::process::id());
            let handle = Server::new(ServerConfig {
                cache_capacity: CACHE_CAPACITY,
                ..ServerConfig::default()
            })
            .serve_uds(&path)
            .map_err(|e| format!("server start failed: {e}"))?;
            let mut client =
                Client::connect_uds(&path).map_err(|e| format!("client connect failed: {e}"))?;
            for (case, prep) in cases.iter().zip(&prepared) {
                client
                    .solve(&case.t, &prep.b4)
                    .map_err(|e| format!("warm-up request failed: {e}"))?;
            }
            Wire {
                client,
                handle: Some(handle),
            }
        }
    };
    let stats0 = wire
        .client
        .stats()
        .map_err(|e| format!("stats request failed: {e}"))?;

    let mut s = Samples::default();
    let mut counts = Samples::default();
    let (mut attempted, mut failed, mut wrong) = (0u64, 0u64, 0u64);
    let mut requests = 0u64;
    let mut request_counters = [0u64; 3];
    let mut rng = Rng::new(seed, STREAM_LEDGER);
    let mut warm_pw = PlanWorkspace::new();
    // Warm the reused workspace before the first measured call.
    drop(
        prepared[0]
            .plan
            .execute(&cases[0].t, &mut warm_pw)
            .map_err(|e| format!("warm factor failed: {e}"))?,
    );
    let mut encoded = Vec::new();
    trace::set_capacity(1 << 17);
    bs_probe::enable_all(f64::INFINITY);

    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut round_no = 0usize;
    while Instant::now() < deadline {
        let ci = round_no % cases.len();
        let (case, prep) = (&cases[ci], &prepared[ci]);
        let (t, b) = (&case.t, &case.problems[0].b);

        // The workload's operation, untraced and traced, in alternating
        // order. `serve_mixed`'s operation is a request that hits.
        let even = round_no.is_multiple_of(2);
        for traced in [even, !even] {
            if traced {
                bs_probe::enable_all(f64::INFINITY);
            } else {
                bs_probe::disable_all();
            }
            trace::clear();
            let c0 = counters();
            // `None` when the program returned an error, else whether
            // the output passed its checks.
            let ok;
            let (op_s, ref_s);
            if kind == Kind::ServeMixed {
                let req = &serve_state.as_ref().expect("serve state").requests[ci][0];
                let (res, o, r) = reference.pair(|| wire.client.solve(t, &req.b));
                ok = res.ok().map(|x| {
                    if traced {
                        let (_, e) = case.check(0, x.col(0));
                        s.push("core.backward_err_eps", e.backward_eps);
                    }
                    req.matches(&x)
                });
                (op_s, ref_s) = (o, r);
                requests += 1;
            } else {
                let (res, o, r) = reference.pair(|| workload::engine_op(kind, case, 0));
                ok = res.ok().map(|x| {
                    let (ok, e) = case.check(0, &x);
                    if traced {
                        s.push("core.backward_err_eps", e.backward_eps);
                    }
                    ok
                });
                (op_s, ref_s) = (o, r);
            }
            let c1 = counters();
            if kind == Kind::ServeMixed {
                for k in 0..3 {
                    request_counters[k] += c1[k] - c0[k];
                }
            }
            attempted += 1;
            failed += u64::from(ok.is_none());
            wrong += u64::from(ok == Some(false));
            if traced {
                s.push("op_traced", op_s / ref_s);
                for (k, name) in [
                    "matrix.kernel_dispatches",
                    "matrix.workspace_allocs",
                    "matrix.pool_dispatches",
                ]
                .into_iter()
                .enumerate()
                {
                    counts.push(name, (c1[k] - c0[k]) as f64);
                }
            } else {
                s.push("op_untraced", op_s / ref_s);
            }
        }
        bs_probe::enable_all(f64::INFINITY);

        // Planner.
        let (plan, o, r) = reference.pair(|| plan_for(kind, t));
        s.push("plan.build_xref", o / r);
        let plan = plan.map_err(|e| format!("plan failed: {e}"))?;
        counts.push("plan.block_size", plan.block_size() as f64);

        // Generator.
        let (_, o, r) = reference.pair(|| build_generator(&prep.generator_input));
        s.push("toeplitz.generator_xref", o / r);

        // Elimination with a warm workspace, profiled by its spans.
        trace::clear();
        let f0 = bs_matrix::flops::total();
        let (fact, o, r) = reference.pair(|| prep.plan.execute(t, &mut warm_pw));
        let flops = bs_matrix::flops::total() - f0;
        let profile = Profile::from_events(&trace::take_events());
        s.push("core.factor_xref", o / r);
        s.push("core.panel_self_xref", self_s(&profile, "factor_panel") / r);
        s.push("core.apply_self_xref", self_s(&profile, "apply_rep") / r);
        s.push(
            "core.step_self_xref",
            (self_s(&profile, "schur_step") + self_s(&profile, "indef_step")) / r,
        );
        counts.push("core.flops_per_op", flops as f64);
        let fact = fact.map_err(|e| format!("factor failed: {e}"))?;

        // The same elimination allocating its arena and R afresh.
        let (_, o, r) = reference.pair(|| prep.plan.execute(t, &mut PlanWorkspace::new()));
        s.push("core.factor_cold_xref", o / r);

        // The level-3 kernel on the trailing update's shape at this m_s.
        let ms2 = 2 * prep.plan.block_size();
        let width = (case.op.order() / 2).max(1);
        let a = Matrix::from_fn(ms2, ms2, |i, j| 1.0 / (1 + i + j) as f64);
        let bm = Matrix::from_fn(ms2, width, |i, j| ((i * 7 + j) % 13) as f64 - 6.0);
        let mut cm = Matrix::zeros(ms2, width);
        let (_, o, _) = reference.pair(|| {
            gemm(1.0, a.rf(), Trans::No, bm.rf(), Trans::No, 1.0, cm.mt());
        });
        s.push(
            "matrix.kernel_gflops",
            2.0 * (ms2 * ms2 * width) as f64 / o * 1e-9,
        );

        // Triangular solves and refinement on the factor.
        let (r_mat, d, indef) = factor_parts(&fact);
        let mut x = b.clone();
        let (res, o, r) = reference.pair(|| solve_rtdr_in_place(r_mat, d, &mut x));
        res.map_err(|e| format!("triangular solve failed: {e}"))?;
        s.push("core.tri_solve_xref", o / r);
        let (res, o, r) =
            reference.pair(|| bs_core::solve_refined(t, &indef, b, &RefineOptions::default()));
        let refined = res.map_err(|e| format!("refinement failed: {e}"))?;
        s.push("core.refine_xref", o / r);
        counts.push("core.refine_iters", refined.iterations as f64);

        // FFT residuals.
        let (fast, o, r) = reference.pair(|| FastToeplitzMatVec::new(t));
        s.push("toeplitz.fft_setup_xref", o / r);
        let (_, o, r) = reference.pair(|| fast.residual(&refined.x, b));
        s.push("toeplitz.fft_residual_xref", o / r);

        // The indefinite elimination kernel on the same operator.
        let (res, o, r) =
            reference.pair(|| bs_core::factor_indefinite(t, &IndefOptions::default()));
        s.push("core.indef_factor_xref", o / r);
        let fi = res.map_err(|e| format!("indefinite factor failed: {e}"))?;
        counts.push("core.exchanges", fi.exchanges as f64);
        counts.push("core.perturbations", fi.perturbations.len() as f64);
        drop(fi);

        // Serve layer, call by call.
        let (_, o, r) = reference.pair(|| t.fingerprint());
        s.push("toeplitz.fingerprint_xref", o / r);
        let (res, o, r) = reference.pair(|| proto::read_generator(&mut Reader::new(&prep.body)));
        res.map_err(|e| format!("decode failed: {e}"))?;
        s.push("serve.decode_xref", o / r);
        let (_, o, r) = reference.pair(|| {
            encoded.clear();
            proto::put_generator(&mut encoded, t);
            proto::put_f64s(&mut encoded, prep.x4.as_slice());
        });
        s.push("serve.encode_xref", o / r);
        let cache = OperatorCache::new(2);
        let (res, o, r) = reference.pair(|| cache.get_or_factor(t));
        s.push("serve.cache_miss_xref", o / r);
        res.map_err(|e| format!("cache miss failed: {e}"))?;
        let (res, o, r) = reference.pair(|| cache.get_or_factor(t));
        s.push("serve.cache_hit_xref", o / r);
        let factor = res.map_err(|e| format!("cache hit failed: {e}"))?;
        let mut x4 = Matrix::zeros(case.op.order(), SERVE_COLUMNS);
        let (res, o, r) = reference.pair(|| factor.solve_cols_into(&prep.b4, &mut x4));
        res.map_err(|e| format!("local solve failed: {e}"))?;
        s.push("serve.local_solve_xref", o / r);
        drop(factor);
        drop(cache);
        // Hand the warm factor's storage back, as a re-factoring solver
        // does, so the next round's warm call reuses it.
        match fact {
            Factorization::Spd(f) => warm_pw.donate(f.r),
            Factorization::Indefinite(f) => {
                warm_pw.donate(f.r);
                warm_pw.donate_indefinite(f.d, f.perturbations);
            }
        }

        // Requests over the socket: ROUND − 1 hits and one miss.
        for _ in 0..ROUND - 1 {
            let c0 = counters();
            let (res, o, r) = reference.pair(|| wire.client.solve(t, &prep.b4));
            let c1 = counters();
            for k in 0..3 {
                request_counters[k] += c1[k] - c0[k];
            }
            requests += 1;
            attempted += 1;
            match res {
                Ok(x) => wrong += u64::from(!serving::bitwise_eq(&x, &prep.x4)),
                Err(_) => failed += 1,
            }
            s.push("hit", o / r);
        }
        // The miss is a latency sample: its answer is not checked here,
        // since on scalar operators the server's unretiled path is the
        // one the workloads leave out (see README).
        let miss_op = kind.operator(&mut rng);
        let miss_t = miss_op.to_program();
        let miss_b = Matrix::from_fn(miss_op.order(), SERVE_COLUMNS, |_, _| rng.range(-1.0, 1.0));
        let c0 = counters();
        let (res, o, r) = reference.pair(|| wire.client.solve(&miss_t, &miss_b));
        let c1 = counters();
        for k in 0..3 {
            request_counters[k] += c1[k] - c0[k];
        }
        requests += 1;
        res.map_err(|e| format!("miss request failed: {e}"))?;
        s.push("miss", o / r);

        // The simplest correct algorithms on the same input. Scalar
        // baselines see the scalar Toeplitz matrix of a block operator's
        // first channel, its largest scalar Toeplitz principal submatrix.
        let (row, rhs) = channel0(case);
        let (_, o, r) = reference.pair(|| bs_baselines::levinson_solve(&row, &rhs));
        s.push("baselines.levinson_xref", o / r);
        let (_, o, r) = reference.pair(|| bs_baselines::scalar_schur_factor(&row));
        s.push("baselines.scalar_schur_xref", o / r);
        let (_, o, r) = reference.pair(|| bs_baselines::block_levinson_solve(t, b));
        s.push("baselines.block_levinson_xref", o / r);

        trace::clear();
        bs_probe::stability::reset();
        round_no += 1;
    }
    bs_probe::disable_all();
    trace::clear();

    let stats1 = wire
        .client
        .stats()
        .map_err(|e| format!("stats request failed: {e}"))?;
    drop(wire.client);
    if let Some(h) = wire.handle.take() {
        h.shutdown();
    }
    if let Some(st) = serve_state {
        st.shutdown();
    }

    // Assemble the ledger.
    let hit = s.p50("hit");
    let wire_xref = hit
        - (s.p50("serve.decode_xref")
            + s.p50("toeplitz.fingerprint_xref")
            + s.p50("serve.cache_hit_xref")
            + s.p50("serve.local_solve_xref")
            + s.p50("serve.encode_xref"));
    let op = s.p50("op_traced");
    let unattributed = match kind {
        Kind::ScalarSpd | Kind::BlockSpd => {
            op - (s.p50("plan.build_xref")
                + s.p50("core.factor_cold_xref")
                + s.p50("core.tri_solve_xref"))
        }
        Kind::IndefRefine => op - s.p50("core.refine_xref"),
        Kind::ServeMixed => {
            s.p50("miss")
                - (s.p50("serve.decode_xref")
                    + s.p50("toeplitz.fingerprint_xref")
                    + s.p50("serve.cache_miss_xref")
                    + s.p50("serve.local_solve_xref")
                    + s.p50("serve.encode_xref")
                    + wire_xref)
        }
    };
    let per_k = |a: u64, b: u64| 1000.0 * b.saturating_sub(a) as f64 / requests.max(1) as f64;
    let per_op = |name: &str, k: usize| match kind {
        Kind::ServeMixed => request_counters[k] as f64 / (requests.max(1)) as f64,
        _ => counts.p50(name),
    };
    println!("# ledger: rounds={round_no} requests={requests}");
    let x = "xref";
    let c = "count";
    let metrics = vec![
        metric("plan.build_xref", s.p50("plan.build_xref"), x),
        metric("plan.block_size", counts.p50("plan.block_size"), c),
        metric(
            "toeplitz.generator_xref",
            s.p50("toeplitz.generator_xref"),
            x,
        ),
        metric("core.factor_xref", s.p50("core.factor_xref"), x),
        metric("core.factor_cold_xref", s.p50("core.factor_cold_xref"), x),
        metric("core.panel_self_xref", s.p50("core.panel_self_xref"), x),
        metric("core.apply_self_xref", s.p50("core.apply_self_xref"), x),
        metric("core.step_self_xref", s.p50("core.step_self_xref"), x),
        metric("core.flops_per_op", counts.p50("core.flops_per_op"), "flop"),
        metric(
            "matrix.kernel_gflops",
            s.p50("matrix.kernel_gflops"),
            "Gflop/s",
        ),
        metric(
            "matrix.kernel_dispatches",
            per_op("matrix.kernel_dispatches", 0),
            c,
        ),
        metric(
            "matrix.workspace_allocs",
            per_op("matrix.workspace_allocs", 1),
            c,
        ),
        metric(
            "matrix.pool_dispatches",
            per_op("matrix.pool_dispatches", 2),
            c,
        ),
        metric("core.tri_solve_xref", s.p50("core.tri_solve_xref"), x),
        metric("core.refine_xref", s.p50("core.refine_xref"), x),
        metric("core.refine_iters", counts.p50("core.refine_iters"), c),
        metric(
            "toeplitz.fft_setup_xref",
            s.p50("toeplitz.fft_setup_xref"),
            x,
        ),
        metric(
            "toeplitz.fft_residual_xref",
            s.p50("toeplitz.fft_residual_xref"),
            x,
        ),
        metric("core.indef_factor_xref", s.p50("core.indef_factor_xref"), x),
        metric("core.exchanges", counts.p50("core.exchanges"), c),
        metric("core.perturbations", counts.p50("core.perturbations"), c),
        metric(
            "toeplitz.fingerprint_xref",
            s.p50("toeplitz.fingerprint_xref"),
            x,
        ),
        metric("serve.decode_xref", s.p50("serve.decode_xref"), x),
        metric("serve.encode_xref", s.p50("serve.encode_xref"), x),
        metric("serve.cache_hit_xref", s.p50("serve.cache_hit_xref"), x),
        metric("serve.cache_miss_xref", s.p50("serve.cache_miss_xref"), x),
        metric("serve.local_solve_xref", s.p50("serve.local_solve_xref"), x),
        metric("serve.wire_xref", wire_xref, x),
        metric(
            "serve.factorizations",
            per_k(stats0.factorizations, stats1.factorizations),
            "per_1000_req",
        ),
        metric(
            "serve.evictions",
            per_k(stats0.evictions, stats1.evictions),
            "per_1000_req",
        ),
        metric(
            "serve.single_flight_waits",
            per_k(stats0.single_flight_waits, stats1.single_flight_waits),
            "per_1000_req",
        ),
        metric(
            "baselines.levinson_xref",
            s.p50("baselines.levinson_xref"),
            x,
        ),
        metric(
            "baselines.scalar_schur_xref",
            s.p50("baselines.scalar_schur_xref"),
            x,
        ),
        metric(
            "baselines.block_levinson_xref",
            s.p50("baselines.block_levinson_xref"),
            x,
        ),
        metric(
            "core.backward_err_eps",
            s.p50("core.backward_err_eps"),
            "eps",
        ),
        metric("unattributed_xref", unattributed, x),
        metric("probe.trace_overhead", op / s.p50("op_untraced"), "ratio"),
    ];
    Ok(Ledger {
        attempted,
        failed,
        wrong,
        metrics,
    })
}

/// First row and right-hand side of the scalar Toeplitz matrix formed by
/// channel 0 of every block (the operator itself when `m = 1`).
fn channel0(case: &Case) -> (Vec<f64>, Vec<f64>) {
    let m = case.op.m;
    let row = case.op.blocks.iter().map(|b| b[0]).collect();
    let rhs = case.problems[0].b.iter().step_by(m).copied().collect();
    (row, rhs)
}
