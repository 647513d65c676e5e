//! `serve_mixed`: an in-process bs-serve on a Unix socket, driven by two
//! closed-loop clients.
//!
//! Every request ships the generator inline with a four-column
//! right-hand side. Each client works in whole rounds of
//! [`ROUND`] requests: `ROUND − 1` hits on the resident operators and one
//! miss on an operator the server has never seen. Every response must be
//! bitwise equal to an in-process [`bs_core::Factor`] solve of the same
//! operator (the serve layer's contract) and pass the residual checks.

use crate::inputs::Rng;
use crate::reference::Reference;
use crate::stats::Paired;
use crate::workload::{Case, Kind, SERVE_COLUMNS, STREAM_CLIENT};
use bs_core::{Factor, ToeplitzSolver};
use bs_matrix::Matrix;
use bs_serve::{Client, Server, ServerConfig, ServerHandle};
use std::time::Instant;

/// Requests per client round; the last one is a miss.
pub const ROUND: usize = 16;
/// Closed-loop clients.
pub const CLIENTS: usize = 2;
/// Server cache capacity: the resident set plus room for four misses,
/// so misses evict misses and the resident operators stay hot.
pub const CACHE_CAPACITY: usize = 8;

/// One prepared request and the local solution its response must equal.
pub struct Request {
    pub b: Matrix,
    pub x: Matrix,
}

impl Request {
    /// Request `j` of `case`: columns `j·4 .. j·4+4` of its problems,
    /// solved with the local factor `local`. Errs only when the program
    /// does; [`Request::check`] checks the solution.
    pub fn new(case: &Case, local: &Factor, j: usize) -> Result<Request, String> {
        let n = case.op.order();
        let first = j * SERVE_COLUMNS;
        let b = Matrix::from_fn(n, SERVE_COLUMNS, |i, c| case.problems[first + c].b[i]);
        let mut x = Matrix::zeros(n, SERVE_COLUMNS);
        local
            .solve_cols_into(&b, &mut x)
            .map_err(|e| format!("local serve solve failed: {e}"))?;
        Ok(Request { b, x })
    }

    /// Check the local solution of request `j` of `case`.
    pub fn check(&self, case: &Case, j: usize) -> Result<(), String> {
        for c in 0..SERVE_COLUMNS {
            let (ok, e) = case.check(j * SERVE_COLUMNS + c, self.x.col(c));
            if !ok {
                return Err(format!("local serve solve failed its check: {e:?}"));
            }
        }
        Ok(())
    }

    /// Whether `response` is bitwise equal to the local solution.
    pub fn matches(&self, response: &Matrix) -> bool {
        bitwise_eq(response, &self.x)
    }
}

pub fn bitwise_eq(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(p, q)| p.to_bits() == q.to_bits())
}

/// One closed-loop client and what it keeps between requests.
pub struct Seat {
    pub client: Client,
    pub reference: Reference,
    /// Re-factors each miss locally with the server's options, reusing
    /// its storage.
    solver: ToeplitzSolver,
    /// The client's own stream of miss operators.
    rng: Rng,
    next_hit: usize,
}

/// A running server with its resident operators warm.
pub struct ServeState {
    // Declared first so the connections close before the server stops.
    pub seats: Vec<Seat>,
    pub cases: Vec<Case>,
    /// `requests[h][j]`: request `j` on resident operator `h`.
    pub requests: Vec<Vec<Request>>,
    pub handle: Option<ServerHandle>,
}

impl ServeState {
    /// Close the connections, then stop the server and remove its socket.
    pub fn shutdown(mut self) {
        self.seats.clear();
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
    }
}

/// Socket path, relative to the working directory.
fn socket_path(instance: usize) -> String {
    format!(".perfbench-{}-{instance}.sock", std::process::id())
}

/// Build the inputs, start the server, connect the clients and send
/// every resident request once from each client.
pub fn setup(seed: u64, instance: usize) -> Result<ServeState, String> {
    let kind = Kind::ServeMixed;
    let cases = Case::set(kind, seed)?;
    let requests = cases
        .iter()
        .map(|case| {
            // The server's own path: default options, no planner.
            let local =
                Factor::new(&case.t).map_err(|e| format!("local serve factor failed: {e}"))?;
            (0..kind.problems() / SERVE_COLUMNS)
                .map(|j| {
                    let req = Request::new(case, &local, j)?;
                    req.check(case, j)?;
                    Ok(req)
                })
                .collect::<Result<Vec<_>, String>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    let handle = Server::new(ServerConfig {
        cache_capacity: CACHE_CAPACITY,
        ..ServerConfig::default()
    })
    .serve_uds(socket_path(instance))
    .map_err(|e| format!("server start failed: {e}"))?;
    let mut state = ServeState {
        seats: Vec::with_capacity(CLIENTS),
        cases,
        requests,
        handle: Some(handle),
    };
    for id in 0..CLIENTS {
        let mut reference = Reference::new(kind.reference_order());
        reference.check()?;
        state.seats.push(Seat {
            client: Client::connect_uds(socket_path(instance))
                .map_err(|e| format!("client connect failed: {e}"))?,
            reference,
            solver: ToeplitzSolver::new(&state.cases[0].t)
                .map_err(|e| format!("local serve solver failed: {e}"))?,
            rng: Rng::new(seed, STREAM_CLIENT + id as u64),
            next_hit: id,
        });
    }
    for seat in &mut state.seats {
        for (case, reqs) in state.cases.iter().zip(&state.requests) {
            for req in reqs {
                let x = seat
                    .client
                    .solve(&case.t, &req.b)
                    .map_err(|e| format!("warm-up request failed: {e}"))?;
                if !req.matches(&x) {
                    return Err("warm-up response differs from the local solve".to_string());
                }
            }
        }
    }
    Ok(state)
}

/// What one client saw.
#[derive(Default)]
pub struct ClientOutcome {
    pub all: Paired,
    pub hits: Paired,
    pub misses: Paired,
    pub attempted: u64,
    /// Requests on which the program returned an error.
    pub failed: u64,
    /// Requests whose answer missed a check.
    pub wrong: u64,
}

impl ClientOutcome {
    pub fn merge(&mut self, other: &ClientOutcome) {
        self.all.extend(&other.all);
        self.hits.extend(&other.hits);
        self.misses.extend(&other.misses);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

/// A miss: a fresh operator from the client's own seeded stream, with
/// one request solved by `solver` re-factored on it. Errs only when the
/// program does; the caller checks the request.
fn fresh_miss(rng: &mut Rng, solver: &mut ToeplitzSolver) -> Result<(Case, Request), String> {
    let kind = Kind::ServeMixed;
    let case = Case::new(kind, kind.operator(rng), rng, SERVE_COLUMNS)?;
    solver
        .refactor(&case.t)
        .map_err(|e| format!("local re-factor failed: {e}"))?;
    let req = Request::new(&case, solver.factor(), 0)?;
    Ok((case, req))
}

impl Seat {
    /// Closed loop: whole rounds until `deadline`.
    fn run(
        &mut self,
        cases: &[Case],
        requests: &[Vec<Request>],
        deadline: Instant,
    ) -> ClientOutcome {
        let mut out = ClientOutcome::default();
        let per_case = requests[0].len();
        while Instant::now() < deadline {
            for k in 0..ROUND {
                out.attempted += 1;
                let hit = k + 1 < ROUND;
                let miss;
                let (t, req) = if hit {
                    let h = self.next_hit % cases.len();
                    let j = (self.next_hit / cases.len()) % per_case;
                    self.next_hit += 1;
                    (&cases[h].t, &requests[h][j])
                } else {
                    let m = match fresh_miss(&mut self.rng, &mut self.solver) {
                        Ok(m) => m,
                        Err(e) => {
                            eprintln!("perfbench: miss input failed: {e}");
                            out.failed += 1;
                            continue;
                        }
                    };
                    if let Err(e) = m.1.check(&m.0, 0) {
                        eprintln!("perfbench: miss: {e}");
                        out.wrong += 1;
                        continue;
                    }
                    miss = m;
                    (&miss.0.t, &miss.1)
                };
                let client = &mut self.client;
                let (res, op_s, ref_s) = self.reference.pair(|| client.solve(t, &req.b));
                out.all.push(op_s, ref_s);
                if hit {
                    out.hits.push(op_s, ref_s);
                } else {
                    out.misses.push(op_s, ref_s);
                }
                match res {
                    Ok(x) if req.matches(&x) => {}
                    Ok(x) => {
                        let diff = x
                            .as_slice()
                            .iter()
                            .zip(req.x.as_slice())
                            .filter(|(a, b)| a.to_bits() != b.to_bits())
                            .count();
                        eprintln!(
                            "perfbench: {} response differs from the local solve in {diff} entries",
                            if hit { "hit" } else { "miss" }
                        );
                        out.wrong += 1;
                    }
                    Err(e) => {
                        eprintln!("perfbench: request failed: {e}");
                        out.failed += 1;
                    }
                }
            }
        }
        out
    }
}

/// Run both clients until `deadline`.
pub fn run(state: &mut ServeState, deadline: Instant) -> ClientOutcome {
    let (cases, requests) = (&state.cases, &state.requests);
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = state
            .seats
            .iter_mut()
            .map(|seat| s.spawn(move || seat.run(cases, requests, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a serve client panicked"))
            .collect()
    });
    let mut total = ClientOutcome::default();
    for o in &outcomes {
        total.merge(o);
    }
    total
}
