//! CLI that regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments [fig3|fig4|fig6|fig7|fig8|fig9|fanout|trace|chaos|shard|all] [--requests N] [--seed S]
//! ```
//!
//! `fanout` additionally writes the machine-readable `BENCH_PR2.json` and
//! `BENCH_PR3.json` summaries; `trace` writes the structured event export
//! `trace_switch.jsonl`; `chaos` writes the recovery gate `BENCH_PR4.json`
//! and then runs the fail-slow suite (also reachable alone as `failslow`),
//! which writes the gray-failure gate `BENCH_PR9.json` plus the fail-slow
//! event trace `trace_failslow.jsonl`;
//! `shard` writes the multi-group scaling gate `BENCH_PR5.json`; `explore`
//! (requires `--features check-invariants`) writes the verification gate
//! `BENCH_PR6.json` plus, on violation, the counterexample JSONL
//! `explore_counterexamples.jsonl`; `loopback` boots three real UDP nodes
//! on 127.0.0.1, kills the primary mid-run, and writes the deployment gate
//! `BENCH_PR8.json` (node logs land in `loopback-logs/`). All of them
//! print the names of any failing acceptance gates and exit nonzero.

use std::env;
use std::process::ExitCode;

use vd_bench::experiments::{
    ablation, chaos, failslow, fanout, fig3, fig4, fig6, fig7, fig8, fig9, loopback, shard, trace,
};

/// `fanout` counts payload copies through this allocator.
#[global_allocator]
static GLOBAL: fanout::CountingAlloc = fanout::CountingAlloc;

struct Options {
    which: String,
    requests: u64,
    seed: u64,
}

fn parse() -> Result<Options, String> {
    let mut args = env::args().skip(1);
    let mut options = Options {
        which: "all".to_owned(),
        requests: 2_000,
        seed: 42,
    };
    let mut which_set = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--requests" => {
                let v = args.next().ok_or("--requests needs a value")?;
                options.requests = v.parse().map_err(|_| format!("bad --requests: {v}"))?;
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                options.seed = v.parse().map_err(|_| format!("bad --seed: {v}"))?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: experiments [fig3|fig4|fig6|fig7|fig8|fig9|fanout|trace|chaos|failslow|shard|explore|loopback|all] [--requests N] [--seed S]"
                        .into(),
                );
            }
            name if !which_set => {
                options.which = name.to_owned();
                which_set = true;
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let Options {
        which,
        requests,
        seed,
    } = options;
    let run_fig3 = || println!("{}", fig3::run(requests, seed).render());
    let run_fig4 = || println!("{}", fig4::run(requests, seed).render());
    let run_fig6 = || println!("{}", fig6::run_timeline(20, 700.0, seed).render());
    let run_fig7_8_9 = |want7: bool, want8: bool, want9: bool| {
        let data = fig7::run(requests, seed);
        if want7 {
            println!("{}", data.render());
        }
        if want8 {
            println!("{}", fig8::derive(&data).render());
        }
        if want9 {
            println!("{}", fig9::derive(&data).render());
        }
    };
    let run_fanout = || -> Result<(), String> {
        let result = fanout::run(requests, seed);
        println!("{}", result.render());
        std::fs::write("BENCH_PR2.json", result.to_json())
            .map_err(|e| format!("failed to write BENCH_PR2.json: {e}"))?;
        std::fs::write("BENCH_PR3.json", result.to_json_pr3())
            .map_err(|e| format!("failed to write BENCH_PR3.json: {e}"))?;
        println!("wrote BENCH_PR2.json, BENCH_PR3.json");
        let failing = result.failing_gates();
        if !failing.is_empty() {
            return Err(format!("fanout gate(s) failed: {}", failing.join(", ")));
        }
        Ok(())
    };
    let run_failslow = || -> Result<(), String> {
        let result = failslow::run(requests, seed);
        println!("{}", result.render());
        std::fs::write("BENCH_PR9.json", result.to_json())
            .map_err(|e| format!("failed to write BENCH_PR9.json: {e}"))?;
        std::fs::write("trace_failslow.jsonl", result.jsonl())
            .map_err(|e| format!("failed to write trace_failslow.jsonl: {e}"))?;
        println!(
            "wrote BENCH_PR9.json, trace_failslow.jsonl ({} events)",
            result.events.len()
        );
        let failing = result.failing_gates();
        if !failing.is_empty() {
            return Err(format!("failslow gate(s) failed: {}", failing.join(", ")));
        }
        Ok(())
    };
    let run_chaos = || -> Result<(), String> {
        let result = chaos::run(requests, seed);
        println!("{}", result.render());
        std::fs::write("BENCH_PR4.json", result.to_json())
            .map_err(|e| format!("failed to write BENCH_PR4.json: {e}"))?;
        println!("wrote BENCH_PR4.json");
        let failing = result.failing_gates();
        if !failing.is_empty() {
            return Err(format!("chaos gate(s) failed: {}", failing.join(", ")));
        }
        // The fail-slow suite rides the chaos gate: gray-fault storms are
        // the robustness surface crashes and partitions leave uncovered.
        run_failslow()
    };
    let run_shard = || -> Result<(), String> {
        let result = shard::run(requests, seed);
        println!("{}", result.render());
        std::fs::write("BENCH_PR5.json", result.to_json())
            .map_err(|e| format!("failed to write BENCH_PR5.json: {e}"))?;
        println!("wrote BENCH_PR5.json");
        let failing = result.failing_gates();
        if !failing.is_empty() {
            return Err(format!("shard gate(s) failed: {}", failing.join(", ")));
        }
        Ok(())
    };
    #[cfg(feature = "check-invariants")]
    let run_explore = || -> Result<(), String> {
        use vd_bench::experiments::explore;
        let result = explore::run(requests, seed);
        println!("{}", result.render());
        std::fs::write("BENCH_PR6.json", result.to_json())
            .map_err(|e| format!("failed to write BENCH_PR6.json: {e}"))?;
        println!("wrote BENCH_PR6.json");
        let failing = result.failing_gates();
        if !failing.is_empty() {
            return Err(format!("explore gate(s) failed: {}", failing.join(", ")));
        }
        Ok(())
    };
    #[cfg(not(feature = "check-invariants"))]
    let run_explore = || -> Result<(), String> {
        Err("the explore gate needs the runtime invariant layer: \
             rerun with `--features check-invariants`"
            .into())
    };
    let run_loopback = || -> Result<(), String> {
        let result = loopback::run(requests, seed);
        println!("{}", result.render());
        std::fs::write("BENCH_PR8.json", result.to_json())
            .map_err(|e| format!("failed to write BENCH_PR8.json: {e}"))?;
        println!("wrote BENCH_PR8.json");
        let failing = result.failing_gates();
        if !failing.is_empty() {
            return Err(format!("loopback gate(s) failed: {}", failing.join(", ")));
        }
        Ok(())
    };
    let run_trace = || -> Result<(), String> {
        let result = trace::run(12, 1200.0, seed);
        println!("{}", result.render());
        std::fs::write("trace_switch.jsonl", result.jsonl())
            .map_err(|e| format!("failed to write trace_switch.jsonl: {e}"))?;
        println!("wrote trace_switch.jsonl ({} events)", result.events.len());
        let failing = result.failing_gates();
        if !failing.is_empty() {
            return Err(format!("trace gate(s) failed: {}", failing.join(", ")));
        }
        Ok(())
    };
    match which.as_str() {
        "fig3" => run_fig3(),
        "fig4" => run_fig4(),
        "fig6" => run_fig6(),
        "fig7" => run_fig7_8_9(true, false, false),
        "fig8" | "table2" => run_fig7_8_9(false, true, false),
        "fig9" => run_fig7_8_9(false, false, true),
        "ablation" => println!("{}", ablation::run(requests.min(500), seed).render()),
        "fanout" => {
            if let Err(msg) = run_fanout() {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        }
        "trace" => {
            if let Err(msg) = run_trace() {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        }
        "failslow" => {
            if let Err(msg) = run_failslow() {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        }
        "chaos" => {
            if let Err(msg) = run_chaos() {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        }
        "shard" => {
            if let Err(msg) = run_shard() {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        }
        "explore" => {
            if let Err(msg) = run_explore() {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        }
        "loopback" => {
            if let Err(msg) = run_loopback() {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        }
        "all" => {
            run_fig3();
            run_fig4();
            run_fig6();
            run_fig7_8_9(true, true, true);
            println!("{}", ablation::run(requests.min(500), seed).render());
            let mut steps: Vec<&dyn Fn() -> Result<(), String>> = vec![
                &run_fanout,
                &run_trace,
                &run_chaos,
                &run_shard,
                &run_loopback,
            ];
            // The explore gate joins `all` only when its invariant layer
            // is compiled in; without the feature it stays an explicit
            // opt-in (and explains what it needs).
            if cfg!(feature = "check-invariants") {
                steps.push(&run_explore);
            }
            for step in steps {
                if let Err(msg) = step() {
                    eprintln!("{msg}");
                    return ExitCode::FAILURE;
                }
            }
        }
        other => {
            eprintln!(
                "unknown experiment: {other} (expected fig3|fig4|fig6|fig7|fig8|fig9|ablation|fanout|trace|chaos|failslow|shard|explore|loopback|all)"
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
