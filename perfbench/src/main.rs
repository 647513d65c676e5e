//! Host-normalized benchmark of the block Schur workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload scalar_spd --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every timed operation is paired with one reference solve (see
//! `reference.rs`) and reported in `xref`, units of that solve. With
//! `--trace 0` the last line of standard output carries the end-to-end
//! metrics; with `--trace 1` it carries the per-layer ledger of
//! `ledger.rs`. Lines before it, starting with `#`, describe the host and
//! the raw times.

mod inputs;
mod ledger;
mod reference;
mod serving;
mod stats;
mod workload;

use stats::{metric, Metric, Paired};
use std::time::{Duration, Instant};
use workload::Kind;

/// Set-ups per run; `setup_s` is their median. The engine workloads
/// spread them over the run: it is cut into this many segments, each a
/// fresh set-up followed by its share of the measuring time, so
/// `setup_s` samples the host across the whole run instead of in one
/// stretch at its start.
const SETUP_REPEATS: u32 = 5;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

/// One worker thread, the analytic planner and the native kernel: no
/// `BS_*` setting from the caller's environment reaches the program.
fn pin_environment() {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("BS_") {
            std::env::remove_var(&key);
        }
    }
    std::env::set_var("BS_THREADS", "1");
}

fn print_host(args: &Args) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("# host: cpu={cpu:?} cores_online={cores}");
    println!(
        "# build: kernel_isa={} rustc={:?}",
        bs_matrix::kernel::active_isa_name(),
        env!("PERFBENCH_RUSTC")
    );
    println!(
        "# run: workload={} seed={} seconds={} trace={} reference_order={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.kind.reference_order()
    );
}

/// What a timed run measured.
#[derive(Default)]
struct Timed {
    setup_s: Vec<f64>,
    all: Paired,
    attempted: u64,
    /// Operations on which the program returned an error.
    failed: u64,
    /// Operations whose output missed a check.
    wrong: u64,
    /// Per-class samples, for the raw-time lines (`serve_mixed` only).
    classes: Vec<(&'static str, Paired)>,
}

/// Measuring time of one segment of the run.
fn segment(seconds: u64) -> Duration {
    Duration::from_secs(seconds) / SETUP_REPEATS
}

fn timed_engine(kind: Kind, seed: u64, seconds: u64) -> Result<Timed, String> {
    let mut t = Timed::default();
    let round = workload::round(kind);
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let mut state = workload::engine_setup(kind, seed)?;
        t.setup_s.push(t0.elapsed().as_secs_f64());
        let deadline = Instant::now() + segment(seconds);
        while Instant::now() < deadline {
            for &(ci, pi) in &round {
                let case = &state.cases[ci];
                let (res, op_s, ref_s) =
                    state.reference.pair(|| workload::engine_op(kind, case, pi));
                t.all.push(op_s, ref_s);
                t.attempted += 1;
                match res.map(|x| case.check(pi, &x)) {
                    Ok((true, _)) => {}
                    Ok((false, e)) => {
                        eprintln!("perfbench: operator {ci} failed its check: {e:?}");
                        t.wrong += 1;
                    }
                    Err(e) => {
                        eprintln!("perfbench: operator {ci} failed: {e}");
                        t.failed += 1;
                    }
                }
            }
        }
    }
    Ok(t)
}

/// `serve_mixed` makes its set-ups back to back at the start and then
/// measures one server for the whole run. `op_p90_xref` reads the tail
/// of its hit latencies; with a server restarted every segment it spread
/// by 30 % between runs in one set of ten, against 4–6 % in sets that
/// kept one server.
fn timed_serve(seed: u64, seconds: u64) -> Result<Timed, String> {
    let mut t = Timed::default();
    let mut state: Option<serving::ServeState> = None;
    for instance in 0..SETUP_REPEATS as usize {
        if let Some(s) = state.take() {
            s.shutdown();
        }
        let t0 = Instant::now();
        state = Some(serving::setup(seed, instance)?);
        t.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut state = state.expect("at least one set-up");
    let total = serving::run(&mut state, Instant::now() + Duration::from_secs(seconds));
    state.shutdown();
    t.all = total.all;
    t.attempted = total.attempted;
    t.failed = total.failed;
    t.wrong = total.wrong;
    t.classes = vec![("hit", total.hits), ("miss", total.misses)];
    Ok(t)
}

fn print_raw(name: &str, p: &Paired) {
    if p.len() == 0 {
        return;
    }
    println!(
        "# raw {name}: samples={} op_p50_ms={:.4} ref_p50_ms={:.4} xref p50={:.4} p75={:.4} p90={:.4} p95={:.4}",
        p.len(),
        stats::median(&p.op_s) * 1e3,
        stats::median(&p.ref_s) * 1e3,
        p.p50(),
        stats::quantile(&p.ratios, 0.75),
        stats::quantile(&p.ratios, 0.9),
        stats::quantile(&p.ratios, 0.95),
    );
}

/// What the result line reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Operations whose output missed a check; `correct` is `wrong == 0`.
    wrong: u64,
    metrics: Vec<Metric>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        let l = ledger::run(args.kind, args.seed, args.seconds)?;
        return Ok(Outcome {
            attempted: l.attempted,
            failed: l.failed,
            wrong: l.wrong,
            metrics: l.metrics,
        });
    }
    let t = match args.kind {
        Kind::ServeMixed => timed_serve(args.seed, args.seconds)?,
        kind => timed_engine(kind, args.seed, args.seconds)?,
    };
    if t.all.len() == 0 {
        return Err("no operation completed".to_string());
    }
    print_raw("op", &t.all);
    for (name, p) in &t.classes {
        print_raw(name, p);
    }
    println!("# peak_rss_mb: {:.2}", stats::peak_rss_mib());
    println!(
        "# setup_s: {}",
        t.setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let metrics = vec![
        metric("setup_s", stats::median(&t.setup_s), "s"),
        metric("op_p50_xref", t.all.p50(), "xref"),
        metric("op_p90_xref", stats::quantile(&t.all.ratios, 0.9), "xref"),
        metric("op_mean_xref", t.all.mean(), "xref"),
    ];
    Ok(Outcome {
        attempted: t.attempted,
        failed: t.failed,
        wrong: t.wrong,
        metrics,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    pin_environment();
    print_host(&args);
    match run(&args) {
        Ok(o) if o.metrics.iter().any(|m| !m.value.is_finite()) => {
            eprintln!("perfbench: a metric is not a finite number");
            std::process::exit(1);
        }
        Ok(o) => {
            if o.wrong > 0 {
                eprintln!(
                    "perfbench: {} of {} outputs missed their checks",
                    o.wrong, o.attempted
                );
            }
            println!(
                "{}",
                stats::result_json(o.wrong == 0, o.attempted, o.failed, &o.metrics)
            );
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
