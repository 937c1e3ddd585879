//! The `vd-node` binary: boot one cluster node from a TOML config.
//!
//! ```text
//! vd-node --config examples/loopback/node1.toml [--run-for-secs N]
//!         [--node-id N] [--listen ADDR] [--seed N] [--log-dir DIR]
//! ```
//!
//! Flags override the corresponding config keys. With `--run-for-secs`
//! the node runs for that long, prints its metrics as text, and exits
//! cleanly; without it the node runs until the process is killed.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use vd_node::config::NodeConfig;
use vd_node::node::Node;

struct Options {
    config: PathBuf,
    run_for_secs: Option<u64>,
    node_id: Option<u32>,
    listen: Option<String>,
    seed: Option<u64>,
    log_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut options = Options {
        config: PathBuf::new(),
        run_for_secs: None,
        node_id: None,
        listen: None,
        seed: None,
        log_dir: None,
    };
    let mut have_config = false;
    while let Some(arg) = args.next() {
        let mut value_for = |flag: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--config" => {
                options.config = PathBuf::from(value_for("--config")?);
                have_config = true;
            }
            "--run-for-secs" => {
                options.run_for_secs = Some(
                    value_for("--run-for-secs")?
                        .parse()
                        .map_err(|e| format!("--run-for-secs: {e}"))?,
                );
            }
            "--node-id" => {
                options.node_id = Some(
                    value_for("--node-id")?
                        .parse()
                        .map_err(|e| format!("--node-id: {e}"))?,
                );
            }
            "--listen" => options.listen = Some(value_for("--listen")?),
            "--seed" => {
                options.seed = Some(
                    value_for("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--log-dir" => options.log_dir = Some(PathBuf::from(value_for("--log-dir")?)),
            "--help" | "-h" => {
                return Err("usage: vd-node --config <file.toml> [--run-for-secs N] \
                            [--node-id N] [--listen ADDR] [--seed N] [--log-dir DIR]"
                    .to_string());
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if !have_config {
        return Err("--config is required (see examples/loopback/)".to_string());
    }
    Ok(options)
}

#[expect(
    clippy::disallowed_methods,
    reason = "the main thread has nothing to do between startup and shutdown; --run-for-secs \
              sleeps here while the node's loop thread does the work"
)]
fn run() -> Result<(), String> {
    let options = parse_args()?;
    let mut config =
        NodeConfig::load(&options.config).map_err(|e| format!("loading config: {e}"))?;
    if let Some(id) = options.node_id {
        config.node_id = id;
    }
    if let Some(listen) = options.listen {
        config.listen = listen;
    }
    if let Some(seed) = options.seed {
        config.seed = seed;
    }
    if let Some(dir) = options.log_dir {
        config.log_dir = Some(dir);
    }
    config.mirror_stderr = true;
    let handle = Node::start(config).map_err(|e| format!("starting node: {e}"))?;
    eprintln!(
        "vd-node: listening on {} hosting {:?}",
        handle.local_addr(),
        handle.local_pids().iter().map(|p| p.0).collect::<Vec<_>>()
    );
    match options.run_for_secs {
        Some(secs) => {
            std::thread::sleep(Duration::from_secs(secs));
            println!("{}", handle.obs().metrics.render_text());
            handle.shutdown();
            Ok(())
        }
        None => {
            // Run until killed: the node's loop thread does all the work.
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("vd-node: {msg}");
            ExitCode::FAILURE
        }
    }
}
