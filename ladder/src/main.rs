//! The infpdb benchmark: a layer ladder over three seeded workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path ladder/Cargo.toml -- \
//!     --workload cold-mix|hot-repeat|store-reopen --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` a traced replay of the same seeded inputs gives the
//! per-layer metrics. Every metric is printed by name with its unit, and
//! the last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is non-zero when
//! any answer fails the correctness gate. Working files go under
//! `.ladder-work/` in the current directory.

mod kb;
mod ladder;
mod lifecycle;
mod report;
mod requests;
mod rng;
mod stack;
mod store;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(1.0),
        trace: trace.unwrap_or(false),
    })
}

/// Sleeps in the open-loop generator wake on time instead of up to the
/// default 50 µs timer slack late.
fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument (nanoseconds)
    // and touches no memory of this process; the result is ignored
    // because a failure only leaves the default slack in place.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload cold-mix|hot-repeat|store-reopen --seed N --seconds S --trace 0|1\n{e}");
            return ExitCode::from(2);
        }
    };
    tighten_timer_slack();
    let work = PathBuf::from(".ladder-work");
    let result = match args.workload.as_str() {
        "cold-mix" => requests::run(
            requests::Kind::Cold,
            args.seed,
            args.seconds,
            args.trace,
            &work,
        ),
        "hot-repeat" => requests::run(
            requests::Kind::Hot,
            args.seed,
            args.seconds,
            args.trace,
            &work,
        ),
        "store-reopen" => store::run(args.seed, args.seconds, args.trace, &work),
        other => Err(format!("unknown workload {other}")),
    };
    match result {
        Ok(outcome) => {
            outcome.print();
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
