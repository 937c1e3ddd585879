//! Node configuration: which process ids live here, where peers are, and
//! which object groups this node serves.
//!
//! The deployment model follows the paper (§4, Fig. 2): a cluster of
//! nodes each hosting replica *processes*; an object group is replicated
//! across processes on distinct nodes, and the replication style plus
//! degree are per-group configuration — the versatile-dependability
//! knobs. A config file describes one node's slice of that picture:
//!
//! ```toml
//! [node]
//! id = 1
//! listen = "127.0.0.1:7101"
//! seed = 42
//!
//! [[peer]]
//! pid = 1
//! node = 1
//! addr = "127.0.0.1:7101"
//!
//! [[peer]]
//! pid = 2
//! node = 2
//! addr = "127.0.0.1:7102"
//!
//! [[group]]
//! id = 1
//! style = "active"
//! replicas = [1, 2]
//! app = "counter"
//! ```
//!
//! The node hosts one actor per local pid (a peer whose `node` equals the
//! node's id); that actor owns the state of every group listing its pid —
//! with the default one-process-per-group placement, exactly one group.
//!
//! The parser is a deliberately small TOML subset (tables, array tables,
//! integers, strings, booleans, integer arrays, `#` comments): the build
//! must work offline with no serde, and the config surface is small
//! enough that a hand-rolled parser is the simpler dependency.

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;

use bytes::Bytes;
use vd_core::state::{InvokeResult, ReplicatedApplication};
use vd_core::style::ReplicationStyle;
use vd_group::config::GroupConfig;
use vd_simnet::time::SimDuration;

/// A parsed node configuration.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This node's id (matched against peer `node` fields).
    pub node_id: u32,
    /// The UDP listen address, e.g. `127.0.0.1:7101`.
    pub listen: String,
    /// Seed for the node's deterministic RNG (actor threads derive
    /// per-actor seeds from it).
    pub seed: u64,
    /// Directory for the node's line log; `None` disables file logging.
    pub log_dir: Option<PathBuf>,
    /// Mirror log lines to stderr (for interactive runs).
    pub mirror_stderr: bool,
    /// Base supervisor restart backoff in milliseconds (doubles per
    /// consecutive crash, capped). Deployments set this at or above the
    /// group failure timeout so a restarted replica re-joins only after
    /// the survivors have evicted its dead incarnation.
    pub restart_backoff_ms: Option<u64>,
    /// Every process in the cluster and where it listens.
    pub peers: Vec<PeerConfig>,
    /// The object groups served by this cluster.
    pub groups: Vec<GroupSpec>,
}

/// One cluster process: its id, owning node and socket address.
#[derive(Debug, Clone)]
pub struct PeerConfig {
    /// The process id (unique across the cluster).
    pub pid: u64,
    /// The node hosting this process.
    pub node: u32,
    /// The UDP address of that node's socket.
    pub addr: String,
}

/// One replicated object group (the paper's unit of dependability
/// configuration: style and degree are set here, per group).
#[derive(Debug, Clone)]
pub struct GroupSpec {
    /// Group id.
    pub id: u32,
    /// Replication style (paper §3: active, warm/cold passive,
    /// semi-active).
    pub style: ReplicationStyle,
    /// Process ids of the group's replicas.
    pub replicas: Vec<u64>,
    /// Which built-in servant the replicas run.
    pub app: AppKind,
    /// `true` to join an already-running group instead of bootstrapping.
    pub join: bool,
    /// Heartbeat (fault-monitoring) interval override in milliseconds —
    /// the paper's §2 fault-monitoring knob. `None` keeps the group
    /// layer's default, which is tuned for simulation; real clusters on
    /// busy machines usually want a larger value.
    pub heartbeat_ms: Option<u64>,
    /// Failure-suspicion timeout override in milliseconds (must exceed
    /// the heartbeat interval). Sets the fault-detection latency, and
    /// with it the availability column of the paper's Table 1.
    pub failure_timeout_ms: Option<u64>,
}

impl GroupSpec {
    /// The group-layer tuning this group's replicas run with: the
    /// defaults plus this spec's fault-monitoring overrides.
    pub(crate) fn group_config(&self) -> GroupConfig {
        let mut config = GroupConfig::default();
        if let Some(hb) = self.heartbeat_ms {
            config.heartbeat_interval = SimDuration::from_millis(hb);
        }
        if let Some(timeout) = self.failure_timeout_ms {
            config.failure_timeout = SimDuration::from_millis(timeout);
        }
        config
    }
}

/// Built-in replicated servants selectable from config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// A monotonically increasing counter ([`CounterApp`]).
    Counter,
}

impl AppKind {
    /// Parses the config-file spelling.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "counter" => Some(AppKind::Counter),
            _ => None,
        }
    }

    /// Instantiates a fresh servant of this kind.
    pub fn build(self) -> Box<dyn ReplicatedApplication> {
        match self {
            AppKind::Counter => Box::new(CounterApp::default()),
        }
    }
}

/// The built-in counter servant: `increment` bumps and returns the value,
/// `get` returns it unchanged. State is the 8-byte little-endian value.
#[derive(Debug, Default)]
pub struct CounterApp {
    value: u64,
}

impl ReplicatedApplication for CounterApp {
    fn invoke(&mut self, operation: &str, _args: &Bytes) -> InvokeResult {
        if operation == "increment" {
            self.value += 1;
        }
        Ok(Bytes::copy_from_slice(&self.value.to_le_bytes()))
    }

    fn capture_state(&self) -> Bytes {
        Bytes::copy_from_slice(&self.value.to_le_bytes())
    }

    fn restore_state(&mut self, state: &Bytes) {
        let mut raw = [0u8; 8];
        if state.len() >= 8 {
            raw.copy_from_slice(&state[..8]);
        }
        self.value = u64::from_le_bytes(raw);
    }
}

/// Parses a style's config-file spelling.
pub fn style_from_name(name: &str) -> Option<ReplicationStyle> {
    match name {
        "active" => Some(ReplicationStyle::Active),
        "warm-passive" => Some(ReplicationStyle::WarmPassive),
        "cold-passive" => Some(ReplicationStyle::ColdPassive),
        "semi-active" => Some(ReplicationStyle::SemiActive),
        _ => None,
    }
}

/// Why a config failed to load.
#[derive(Debug)]
pub enum ConfigError {
    /// The file could not be read.
    Io(std::io::Error),
    /// A line did not parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// A required key was absent.
    Missing(&'static str),
    /// A key was present but its value was not acceptable.
    Invalid {
        /// The key.
        what: &'static str,
        /// The offending value.
        value: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Io(e) => write!(f, "config io error: {e}"),
            ConfigError::Parse { line, msg } => write!(f, "config line {line}: {msg}"),
            ConfigError::Missing(what) => write!(f, "config missing required key: {what}"),
            ConfigError::Invalid { what, value } => {
                write!(f, "config key {what} has invalid value {value:?}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[derive(Debug, Clone, PartialEq)]
enum TomlValue {
    Int(i64),
    Str(String),
    Bool(bool),
    IntList(Vec<i64>),
}

#[derive(Debug, Default)]
struct Section {
    name: String,
    values: BTreeMap<String, TomlValue>,
}

fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(raw: &str, line: usize) -> Result<TomlValue, ConfigError> {
    let raw = raw.trim();
    if let Some(stripped) = raw.strip_prefix('"') {
        let Some(inner) = stripped.strip_suffix('"') else {
            return Err(ConfigError::Parse {
                line,
                msg: format!("unterminated string: {raw}"),
            });
        };
        return Ok(TomlValue::Str(inner.to_string()));
    }
    if raw == "true" {
        return Ok(TomlValue::Bool(true));
    }
    if raw == "false" {
        return Ok(TomlValue::Bool(false));
    }
    if let Some(stripped) = raw.strip_prefix('[') {
        let Some(inner) = stripped.strip_suffix(']') else {
            return Err(ConfigError::Parse {
                line,
                msg: format!("unterminated array: {raw}"),
            });
        };
        let mut items = Vec::new();
        for part in inner.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let n = part.parse::<i64>().map_err(|_| ConfigError::Parse {
                line,
                msg: format!("array element is not an integer: {part}"),
            })?;
            items.push(n);
        }
        return Ok(TomlValue::IntList(items));
    }
    raw.parse::<i64>()
        .map(TomlValue::Int)
        .map_err(|_| ConfigError::Parse {
            line,
            msg: format!("unrecognized value: {raw}"),
        })
}

fn parse_sections(text: &str) -> Result<Vec<Section>, ConfigError> {
    let mut sections: Vec<Section> = Vec::new();
    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(stripped) = line.strip_prefix("[[") {
            let Some(name) = stripped.strip_suffix("]]") else {
                return Err(ConfigError::Parse {
                    line: line_no,
                    msg: format!("malformed array table header: {line}"),
                });
            };
            sections.push(Section {
                name: name.trim().to_string(),
                values: BTreeMap::new(),
            });
        } else if let Some(stripped) = line.strip_prefix('[') {
            let Some(name) = stripped.strip_suffix(']') else {
                return Err(ConfigError::Parse {
                    line: line_no,
                    msg: format!("malformed table header: {line}"),
                });
            };
            sections.push(Section {
                name: name.trim().to_string(),
                values: BTreeMap::new(),
            });
        } else if let Some((key, value)) = line.split_once('=') {
            let Some(section) = sections.last_mut() else {
                return Err(ConfigError::Parse {
                    line: line_no,
                    msg: "key before any [section]".to_string(),
                });
            };
            section
                .values
                .insert(key.trim().to_string(), parse_value(value, line_no)?);
        } else {
            return Err(ConfigError::Parse {
                line: line_no,
                msg: format!("unrecognized line: {line}"),
            });
        }
    }
    Ok(sections)
}

fn get_int(section: &Section, key: &'static str) -> Result<i64, ConfigError> {
    match section.values.get(key) {
        Some(TomlValue::Int(n)) => Ok(*n),
        Some(other) => Err(ConfigError::Invalid {
            what: key,
            value: format!("{other:?}"),
        }),
        None => Err(ConfigError::Missing(key)),
    }
}

fn get_str(section: &Section, key: &'static str) -> Result<String, ConfigError> {
    match section.values.get(key) {
        Some(TomlValue::Str(s)) => Ok(s.clone()),
        Some(other) => Err(ConfigError::Invalid {
            what: key,
            value: format!("{other:?}"),
        }),
        None => Err(ConfigError::Missing(key)),
    }
}

/// An optional millisecond count: absent, or a non-negative integer whose
/// microsecond value fits the clock.
fn get_millis(section: &Section, key: &'static str) -> Result<Option<u64>, ConfigError> {
    let Some(value) = section.values.get(key) else {
        return Ok(None);
    };
    let millis = match value {
        TomlValue::Int(n) => u64::try_from(*n)
            .ok()
            .filter(|ms| ms.checked_mul(1_000).is_some()),
        _ => None,
    };
    millis.map(Some).ok_or_else(|| ConfigError::Invalid {
        what: key,
        value: format!("{value:?}"),
    })
}

impl NodeConfig {
    /// Parses a config from TOML text.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] on malformed text, a missing required key, or an
    /// unacceptable value — including a group whose fault-monitoring
    /// settings (defaults plus `heartbeat_ms`/`failure_timeout_ms`)
    /// fail [`GroupConfig::validate`].
    pub fn from_toml_str(text: &str) -> Result<Self, ConfigError> {
        let sections = parse_sections(text)?;
        let node = sections
            .iter()
            .find(|s| s.name == "node")
            .ok_or(ConfigError::Missing("[node]"))?;
        let mut config = NodeConfig {
            node_id: get_int(node, "id")? as u32,
            listen: get_str(node, "listen")?,
            seed: match node.values.get("seed") {
                Some(TomlValue::Int(n)) => *n as u64,
                _ => 42,
            },
            log_dir: match node.values.get("log_dir") {
                Some(TomlValue::Str(s)) => Some(PathBuf::from(s)),
                _ => None,
            },
            mirror_stderr: matches!(
                node.values.get("mirror_stderr"),
                Some(TomlValue::Bool(true))
            ),
            restart_backoff_ms: match node.values.get("restart_backoff_ms") {
                Some(TomlValue::Int(n)) => Some(*n as u64),
                _ => None,
            },
            peers: Vec::new(),
            groups: Vec::new(),
        };
        for section in &sections {
            match section.name.as_str() {
                "peer" => config.peers.push(PeerConfig {
                    pid: get_int(section, "pid")? as u64,
                    node: get_int(section, "node")? as u32,
                    addr: get_str(section, "addr")?,
                }),
                "group" => {
                    let style_name = get_str(section, "style")?;
                    let style =
                        style_from_name(&style_name).ok_or_else(|| ConfigError::Invalid {
                            what: "style",
                            value: style_name.clone(),
                        })?;
                    let app_name = get_str(section, "app")?;
                    let app =
                        AppKind::from_name(&app_name).ok_or_else(|| ConfigError::Invalid {
                            what: "app",
                            value: app_name.clone(),
                        })?;
                    let replicas = match section.values.get("replicas") {
                        Some(TomlValue::IntList(list)) => list.iter().map(|&n| n as u64).collect(),
                        _ => return Err(ConfigError::Missing("replicas")),
                    };
                    let spec = GroupSpec {
                        id: get_int(section, "id")? as u32,
                        style,
                        replicas,
                        app,
                        join: matches!(section.values.get("join"), Some(TomlValue::Bool(true))),
                        heartbeat_ms: get_millis(section, "heartbeat_ms")?,
                        failure_timeout_ms: get_millis(section, "failure_timeout_ms")?,
                    };
                    spec.group_config()
                        .validate()
                        .map_err(|msg| ConfigError::Invalid {
                            what: "group fault monitoring",
                            value: msg,
                        })?;
                    config.groups.push(spec);
                }
                "node" => {}
                other => {
                    return Err(ConfigError::Invalid {
                        what: "section",
                        value: other.to_string(),
                    })
                }
            }
        }
        Ok(config)
    }

    /// Reads and parses a config file.
    ///
    /// File IO happens once at startup, before any actor thread exists —
    /// this is the justified exception to the no-blocking rule.
    pub fn load(path: &std::path::Path) -> Result<Self, ConfigError> {
        let text = std::fs::read_to_string(path).map_err(ConfigError::Io)?;
        Self::from_toml_str(&text)
    }

    /// The pids this node hosts (peers whose `node` matches).
    pub fn local_pids(&self) -> Vec<u64> {
        self.peers
            .iter()
            .filter(|p| p.node == self.node_id)
            .map(|p| p.pid)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# A two-node cluster, one counter group.
[node]
id = 1
listen = "127.0.0.1:7101"
seed = 7
mirror_stderr = false

[[peer]]
pid = 1
node = 1
addr = "127.0.0.1:7101"

[[peer]]
pid = 2
node = 2
addr = "127.0.0.1:7102"  # inline comment

[[group]]
id = 3
style = "warm-passive"
replicas = [1, 2]
app = "counter"
"#;

    #[test]
    fn parses_the_documented_shape() {
        let config = match NodeConfig::from_toml_str(SAMPLE) {
            Ok(c) => c,
            Err(e) => panic!("parse failed: {e}"),
        };
        assert_eq!(config.node_id, 1);
        assert_eq!(config.listen, "127.0.0.1:7101");
        assert_eq!(config.seed, 7);
        assert_eq!(config.peers.len(), 2);
        assert_eq!(config.peers[1].addr, "127.0.0.1:7102");
        assert_eq!(config.groups.len(), 1);
        assert_eq!(config.groups[0].style, ReplicationStyle::WarmPassive);
        assert_eq!(config.groups[0].replicas, vec![1, 2]);
        assert!(!config.groups[0].join);
        assert_eq!(config.local_pids(), vec![1]);
    }

    #[test]
    fn rejects_unknown_style_and_missing_node() {
        let bad_style = SAMPLE.replace("warm-passive", "triple-modular");
        assert!(matches!(
            NodeConfig::from_toml_str(&bad_style),
            Err(ConfigError::Invalid { what: "style", .. })
        ));
        assert!(matches!(
            NodeConfig::from_toml_str("x = 1"),
            Err(ConfigError::Parse { .. })
        ));
    }

    fn group_fault_monitoring_error(extra: &str) -> Option<ConfigError> {
        // The sample's [[group]] table is last, so appended keys land in it.
        NodeConfig::from_toml_str(&format!("{SAMPLE}{extra}")).err()
    }

    #[test]
    fn rejects_a_zero_heartbeat_interval() {
        assert!(matches!(
            group_fault_monitoring_error("heartbeat_ms = 0\n"),
            Some(ConfigError::Invalid {
                what: "group fault monitoring",
                ..
            })
        ));
    }

    #[test]
    fn rejects_a_timeout_equal_to_the_heartbeat_interval() {
        assert!(matches!(
            group_fault_monitoring_error("heartbeat_ms = 40\nfailure_timeout_ms = 40\n"),
            Some(ConfigError::Invalid {
                what: "group fault monitoring",
                ..
            })
        ));
    }

    #[test]
    fn rejects_a_heartbeat_longer_than_the_default_timeout() {
        // The default failure timeout is 50 ms.
        assert!(matches!(
            group_fault_monitoring_error("heartbeat_ms = 100\n"),
            Some(ConfigError::Invalid {
                what: "group fault monitoring",
                ..
            })
        ));
    }

    #[test]
    fn rejects_a_negative_timeout() {
        assert!(matches!(
            group_fault_monitoring_error("failure_timeout_ms = -5\n"),
            Some(ConfigError::Invalid {
                what: "failure_timeout_ms",
                ..
            })
        ));
    }

    #[test]
    fn loopback_example_configs_parse_and_validate() {
        for text in [
            include_str!("../../../examples/loopback/node1.toml"),
            include_str!("../../../examples/loopback/node2.toml"),
            include_str!("../../../examples/loopback/node3.toml"),
        ] {
            let config = match NodeConfig::from_toml_str(text) {
                Ok(c) => c,
                Err(e) => panic!("example config rejected: {e}"),
            };
            assert_eq!(config.groups[0].heartbeat_ms, Some(30));
            assert_eq!(config.groups[0].failure_timeout_ms, Some(300));
        }
    }

    #[test]
    fn counter_app_round_trips_state() {
        let mut app = CounterApp::default();
        let _ = app.invoke("increment", &Bytes::new());
        let _ = app.invoke("increment", &Bytes::new());
        let snapshot = app.capture_state();
        let mut restored = CounterApp::default();
        restored.restore_state(&snapshot);
        match restored.invoke("get", &Bytes::new()) {
            Ok(value) => assert_eq!(value.as_ref(), 2u64.to_le_bytes()),
            Err(e) => panic!("get failed: {e:?}"),
        }
    }
}
