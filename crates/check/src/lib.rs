//! # vd-check — the workspace determinism linter
//!
//! The reproduction's whole evaluation rests on two mechanical properties
//! that ordinary tests cannot enforce:
//!
//! 1. **Determinism** — every run of the simulator with the same seed must
//!    produce the same trace, so protocol code must not reach for wall
//!    clocks, OS threads, ambient randomness, or iteration-order-dependent
//!    collections.
//! 2. **Exhaustive protocol handling** — adding a variant to a protocol
//!    message enum must be a compile-and-lint event, never a silent drop
//!    through a `_ =>` arm; and decode paths must return errors, not panic.
//!
//! `cargo run -p vd-check` scans every `.rs` file in `crates/core`,
//! `crates/group`, `crates/orb`, `crates/simnet` and `crates/node/src`
//! (comments, string literals and `#[cfg(test)]` blocks excluded) and
//! reports:
//!
//! - [`Lint::Nondeterminism`]: `std::time::Instant` / `SystemTime`,
//!   `thread::sleep`, `rand::thread_rng`, and `HashMap` / `HashSet`
//!   (use `BTreeMap` / `BTreeSet`, or `DeterministicRng` for randomness).
//! - [`Lint::WildcardMatch`]: a `_ =>` arm in a `match` over a protocol
//!   message enum (`ReplicatorMsg`, `GroupMsg`, … — discovered from
//!   `core/src/messages.rs` and `group/src/message.rs`).
//! - [`Lint::DecodeUnwrap`]: `.unwrap()` / `.expect(…)` inside the decode
//!   files (`cdr.rs`, `message.rs`), where malformed input must surface as
//!   a `DecodeError`.
//!
//! A second family statically enforces *explorability* — the properties
//! `vd_simnet::explore`-style bounded model checking relies on:
//!
//! - [`Lint::DigestCoverage`]: an `impl Actor` block without a
//!   `state_digest` in `crates/core` / `crates/group`. One digest-less
//!   actor makes `World::state_digest` return `None` and silently turns
//!   state-space pruning into a no-op for every world containing it.
//! - [`Lint::ProtocolExhaustiveness`]: a `_ =>` arm in a match over the
//!   *extended* protocol surface (wire frames, delivery events, commands,
//!   exploration choices — discovered by
//!   [`discover_extended_protocol_enums`]). A silently-dropped new
//!   variant is an unexplored branch of the state space.
//! - [`Lint::BlockingInActor`]: std sync/IO calls (`Mutex`, `Condvar`,
//!   `std::fs`, sockets, …) inside `on_message` / `on_timer` bodies.
//!   Actors run on the simulator's virtual clock; real blocking stalls
//!   the whole deterministic run and is invisible to the explorer.
//!
//! The real-network backend (`crates/node/src`, see
//! [`Config::blocking_everywhere_paths`]) inverts the blocking lint's
//! scope: there, blocking and thread primitives are the *point* — but
//! every one of them must be individually audited. Under those paths the
//! scan covers **every line**, not just handler bodies, also rejects the
//! thread primitives (`thread::spawn`, `thread::Builder`,
//! `thread::sleep`), and the only way to silence a finding is a
//! [`Allowlist`] entry carrying an explicit ` -- <justification>` suffix.
//! The nondeterminism lint is skipped for those paths (a deployment
//! backend runs on the wall clock by design); the blocking audit is its
//! hazard class.
//!
//! Audited exceptions go in `crates/check/allowlist.txt`; see
//! [`Allowlist`] for the format. Unused entries are an *error* (stale
//! audits must not rot silently). The scanner is a hand-rolled lexical
//! pass (the workspace builds fully offline, so no `syn`), which is why it
//! works on stripped text rather than an AST — see [`strip`].

pub mod strip;

use std::fmt;
use std::path::{Path, PathBuf};

use strip::{blank_test_blocks, strip_source};

/// The lint classes vd-check enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lint {
    /// A nondeterminism source in protocol code.
    Nondeterminism,
    /// A wildcard `_ =>` arm in a match over a protocol message enum.
    WildcardMatch,
    /// `unwrap()`/`expect()` on a decode path.
    DecodeUnwrap,
    /// An `impl Actor` without a `state_digest` in a crate whose actors
    /// are exploration targets.
    DigestCoverage,
    /// A wildcard `_ =>` arm in a match over the extended protocol
    /// surface (wire frames, delivery events, commands, choices).
    ProtocolExhaustiveness,
    /// A std sync/IO call inside an actor's `on_message`/`on_timer` body.
    BlockingInActor,
}

impl Lint {
    /// The stable identifier used in output and in the allowlist file.
    pub fn id(self) -> &'static str {
        match self {
            Lint::Nondeterminism => "nondeterminism",
            Lint::WildcardMatch => "wildcard-match",
            Lint::DecodeUnwrap => "decode-unwrap",
            Lint::DigestCoverage => "digest-coverage",
            Lint::ProtocolExhaustiveness => "protocol-exhaustiveness",
            Lint::BlockingInActor => "blocking-in-actor",
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Which lint fired.
    pub lint: Lint,
    /// Human-readable description.
    pub message: String,
    /// The offending source line (original, not stripped).
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.file.display(),
            self.line,
            self.lint,
            self.message,
            self.excerpt.trim()
        )
    }
}

/// What to scan and with which parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Names of protocol message enums whose matches must be exhaustive.
    pub protocol_enums: Vec<String>,
    /// Names of the *extended* protocol surface (wire frames, delivery
    /// events, commands, exploration choices) for
    /// [`Lint::ProtocolExhaustiveness`]. Enums also present in
    /// [`Config::protocol_enums`] report as [`Lint::WildcardMatch`].
    pub extended_protocol_enums: Vec<String>,
    /// File names (not paths) treated as decode paths for the
    /// unwrap/expect lint.
    pub decode_file_names: Vec<String>,
    /// Path substrings under which every `impl Actor` must carry a
    /// `state_digest` ([`Lint::DigestCoverage`]).
    pub digest_required_paths: Vec<String>,
    /// Path substrings under which the blocking lint scans **every line**
    /// (not just `on_message`/`on_timer` bodies) and additionally rejects
    /// thread primitives. This is the real-network backend, where
    /// blocking IO and event-loop threads are deliberate — and where each
    /// one must carry a justified allowlist entry. The nondeterminism
    /// lint is skipped under these paths: the deployment backend runs on
    /// the wall clock by design.
    pub blocking_everywhere_paths: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            protocol_enums: vec!["ReplicatorMsg".into(), "GroupMsg".into()],
            extended_protocol_enums: vec![
                "AdaptationAction".into(),
                "ChaosAction".into(),
                "Choice".into(),
                "GroupEvent".into(),
                "OrbMessage".into(),
                "PeerVerdict".into(),
                "ReplicaCommand".into(),
                "ReplyStatus".into(),
            ],
            decode_file_names: vec![
                "cdr.rs".into(),
                "message.rs".into(),
                "endpoint.rs".into(),
                "codec.rs".into(),
            ],
            digest_required_paths: vec!["crates/core".into(), "crates/group".into()],
            blocking_everywhere_paths: vec!["crates/node/src".into()],
        }
    }
}

/// The tokens lint (a) rejects, with the guidance printed for each.
const NONDETERMINISM_TOKENS: &[(&str, &str)] = &[
    (
        "Instant",
        "wall-clock time; use the simulator's SimTime instead",
    ),
    (
        "SystemTime",
        "wall-clock time; use the simulator's SimTime instead",
    ),
    (
        "thread::sleep",
        "real-time blocking; schedule a simulator timer instead",
    ),
    (
        "thread_rng",
        "ambient OS randomness; draw from DeterministicRng instead",
    ),
    (
        "HashMap",
        "iteration order is nondeterministic; use BTreeMap",
    ),
    (
        "HashSet",
        "iteration order is nondeterministic; use BTreeSet",
    ),
];

/// Scans one file's source text. `file` is used only for reporting and for
/// deciding whether the decode-path lint applies.
pub fn scan_source(file: &Path, source: &str, config: &Config) -> Vec<Finding> {
    let stripped = blank_test_blocks(&strip_source(source));
    let original_lines: Vec<&str> = source.lines().collect();
    let excerpt = |line: usize| -> String {
        original_lines
            .get(line.saturating_sub(1))
            .unwrap_or(&"")
            .to_string()
    };

    let mut findings = Vec::new();
    let path_text = file.to_string_lossy().replace('\\', "/");
    let blocking_everywhere = config
        .blocking_everywhere_paths
        .iter()
        .any(|p| path_text.contains(p.as_str()));

    // Lint (a): nondeterminism tokens, word-bounded. Skipped under the
    // real-network backend paths — a deployment backend runs on the wall
    // clock by design; its hazard class is the whole-file blocking audit.
    if !blocking_everywhere {
        for (lineno, text) in stripped.lines().enumerate() {
            for &(token, why) in NONDETERMINISM_TOKENS {
                if contains_token(text, token) {
                    findings.push(Finding {
                        file: file.to_path_buf(),
                        line: lineno + 1,
                        lint: Lint::Nondeterminism,
                        message: format!("`{token}`: {why}"),
                        excerpt: excerpt(lineno + 1),
                    });
                }
            }
        }
    }

    // Lint (b): wildcard arms in matches over protocol enums.
    for wildcard in find_wildcard_protocol_matches(&stripped, &config.protocol_enums) {
        findings.push(Finding {
            file: file.to_path_buf(),
            line: wildcard.wildcard_line,
            lint: Lint::WildcardMatch,
            message: format!(
                "`_ =>` arm in a match over protocol enum `{}`; match every variant so \
                 new messages are a compile-and-lint event, not a silent drop",
                wildcard.enum_name
            ),
            excerpt: excerpt(wildcard.wildcard_line),
        });
    }

    // Lint (d): Actor impls without a state_digest, in crates whose
    // actors are exploration targets.
    if config
        .digest_required_paths
        .iter()
        .any(|p| path_text.contains(p.as_str()))
    {
        for (name, line) in find_digestless_actor_impls(&stripped) {
            findings.push(Finding {
                file: file.to_path_buf(),
                line,
                lint: Lint::DigestCoverage,
                message: format!(
                    "`impl Actor for {name}` has no `state_digest`; one digest-less actor \
                     makes World::state_digest return None and silently disables \
                     state-space pruning for every world containing it"
                ),
                excerpt: excerpt(line),
            });
        }
    }

    // Lint (e): wildcard arms over the extended protocol surface. Enums
    // already covered by lint (b) are excluded so one arm never reports
    // under two ids.
    let extended: Vec<String> = config
        .extended_protocol_enums
        .iter()
        .filter(|e| !config.protocol_enums.contains(e))
        .cloned()
        .collect();
    for wildcard in find_wildcard_protocol_matches(&stripped, &extended) {
        findings.push(Finding {
            file: file.to_path_buf(),
            line: wildcard.wildcard_line,
            lint: Lint::ProtocolExhaustiveness,
            message: format!(
                "`_ =>` arm in a match over `{}`; a new variant dropped here is an \
                 unexplored branch of the state space — match every variant",
                wildcard.enum_name
            ),
            excerpt: excerpt(wildcard.wildcard_line),
        });
    }

    // Lint (f): std sync/IO inside actor message/timer handlers — or, under
    // the real-network backend paths, on *every* line plus the thread
    // primitives: there, each blocking call must be individually audited
    // with a justified allowlist entry.
    if blocking_everywhere {
        for (lineno, text) in stripped.lines().enumerate() {
            for &(token, why) in BLOCKING_TOKENS.iter().chain(EVENT_LOOP_TOKENS) {
                if contains_token(text, token) {
                    findings.push(Finding {
                        file: file.to_path_buf(),
                        line: lineno + 1,
                        lint: Lint::BlockingInActor,
                        message: format!(
                            "`{token}` in the real-network backend ({why}); every blocking or \
                             thread primitive here needs an allowlist entry with an explicit \
                             ` -- <justification>`"
                        ),
                        excerpt: excerpt(lineno + 1),
                    });
                }
            }
        }
    } else {
        for (line, token, why) in find_blocking_in_actor_bodies(&stripped) {
            findings.push(Finding {
                file: file.to_path_buf(),
                line,
                lint: Lint::BlockingInActor,
                message: format!("`{token}` inside an actor handler: {why}"),
                excerpt: excerpt(line),
            });
        }
    }

    // Lint (c): unwrap/expect in decode files.
    let name = file
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    if config.decode_file_names.contains(&name) {
        for (lineno, text) in stripped.lines().enumerate() {
            if text.contains(".unwrap()") || text.contains(".expect(") {
                findings.push(Finding {
                    file: file.to_path_buf(),
                    line: lineno + 1,
                    lint: Lint::DecodeUnwrap,
                    message: "panicking call on a decode path; malformed input must surface \
                              as a DecodeError, not a panic"
                        .into(),
                    excerpt: excerpt(lineno + 1),
                });
            }
        }
    }

    findings.sort_by_key(|f| f.line);
    findings
}

/// True when `text` contains `token` as a whole word (identifier-bounded
/// on both sides; `::`-paths like `thread::sleep` are matched verbatim).
fn contains_token(text: &str, token: &str) -> bool {
    token_pos(text, token).is_some()
}

/// Byte offset of the first identifier-bounded occurrence of `token`.
fn token_pos(text: &str, token: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut start = 0usize;
    while let Some(pos) = text[start..].find(token) {
        let begin = start + pos;
        let end = begin + token.len();
        let left_ok = begin == 0 || !is_ident_char(bytes[begin - 1]);
        let right_ok = end >= bytes.len() || !is_ident_char(bytes[end]);
        if left_ok && right_ok {
            return Some(begin);
        }
        start = begin + 1;
    }
    None
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

struct WildcardMatch {
    enum_name: String,
    wildcard_line: usize,
}

/// Finds every `match` block in stripped source whose arm *patterns*
/// mention one of the protocol enums and which also contains a top-level
/// `_ =>` arm.
fn find_wildcard_protocol_matches(stripped: &str, enums: &[String]) -> Vec<WildcardMatch> {
    let chars: Vec<char> = stripped.chars().collect();
    let mut found = Vec::new();
    let mut i = 0usize;
    while i + 5 <= chars.len() {
        if !is_keyword_at(&chars, i, "match") {
            i += 1;
            continue;
        }
        // Walk past the scrutinee to the block's opening brace (tracking
        // parens/brackets so closures or tuples in the scrutinee don't
        // confuse us; struct literals are not legal in scrutinee position).
        let mut j = i + 5;
        let mut nesting = 0i32;
        let block_open = loop {
            match chars.get(j) {
                None => break None,
                Some('(') | Some('[') => nesting += 1,
                Some(')') | Some(']') => nesting -= 1,
                Some('{') if nesting == 0 => break Some(j),
                Some(';') if nesting == 0 => break None, // not a match expr
                _ => {}
            }
            j += 1;
        };
        let Some(open) = block_open else {
            i += 5;
            continue;
        };
        if let Some(wm) = analyze_match_block(&chars, open, enums) {
            found.push(wm);
        }
        // Continue after the `match` keyword: nested matches inside this
        // block are analyzed by their own keyword occurrences.
        i += 5;
    }
    found
}

fn is_keyword_at(chars: &[char], i: usize, kw: &str) -> bool {
    let kw_chars: Vec<char> = kw.chars().collect();
    if i + kw_chars.len() > chars.len() || chars[i..i + kw_chars.len()] != kw_chars[..] {
        return false;
    }
    let left_ok = i == 0 || !(chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
    let right = chars.get(i + kw_chars.len());
    let right_ok = right.is_none_or(|c| !(c.is_alphanumeric() || *c == '_'));
    left_ok && right_ok
}

/// Splits the arms of the match block opening at `chars[open] == '{'` and
/// reports a wildcard finding if an arm pattern references a protocol enum
/// while another top-level arm is `_`.
fn analyze_match_block(chars: &[char], open: usize, enums: &[String]) -> Option<WildcardMatch> {
    let mut depth = 0i32;
    let mut i = open;
    let mut pattern = String::new();
    let mut in_pattern = true;
    let mut enum_hit: Option<String> = None;
    let mut wildcard_pos: Option<usize> = None;

    while i < chars.len() {
        let c = chars[i];
        match c {
            '{' | '(' | '[' => depth += 1,
            '}' | ')' | ']' => {
                depth -= 1;
                if depth == 0 {
                    break; // end of the match block
                }
                // A close at depth 1 while in a body ends a braced arm.
                if depth == 1 && !in_pattern {
                    in_pattern = true;
                    pattern.clear();
                    i += 1;
                    continue;
                }
            }
            _ => {}
        }
        if depth == 1 && in_pattern {
            if c == '=' && chars.get(i + 1) == Some(&'>') {
                // End of a pattern: classify it. Leading commas left over
                // from a preceding braced arm are not part of the pattern.
                let trimmed = pattern.trim_matches(|c: char| c.is_whitespace() || c == ',');
                for e in enums {
                    if pattern.contains(&format!("{e}::")) {
                        enum_hit = Some(e.clone());
                    }
                }
                if trimmed == "_" || trimmed.starts_with("_ if") || trimmed.starts_with("_\n") {
                    wildcard_pos.get_or_insert(i);
                }
                in_pattern = false;
                pattern.clear();
                i += 2;
                continue;
            }
            if depth == 1 {
                pattern.push(c);
            }
        } else if depth == 1 && !in_pattern && c == ',' {
            // A comma at depth 1 ends an expression arm.
            in_pattern = true;
            pattern.clear();
        }
        i += 1;
    }

    match (enum_hit, wildcard_pos) {
        (Some(enum_name), Some(pos)) => Some(WildcardMatch {
            enum_name,
            wildcard_line: line_of(chars, pos),
        }),
        _ => None,
    }
}

fn line_of(chars: &[char], pos: usize) -> usize {
    1 + chars[..pos].iter().filter(|&&c| c == '\n').count()
}

/// Finds `impl … Actor for <Name>` blocks whose body lacks a
/// `fn state_digest`. Returns `(type name, impl header line)`.
fn find_digestless_actor_impls(stripped: &str) -> Vec<(String, usize)> {
    let chars: Vec<char> = stripped.chars().collect();
    let mut found = Vec::new();
    let mut i = 0usize;
    while i + 4 <= chars.len() {
        if !is_keyword_at(&chars, i, "impl") {
            i += 1;
            continue;
        }
        // Collect the header (everything up to the body's opening brace).
        let mut j = i + 4;
        let mut header = String::new();
        while j < chars.len() && chars[j] != '{' && chars[j] != ';' {
            header.push(chars[j]);
            j += 1;
        }
        if chars.get(j) != Some(&'{') {
            i = j;
            continue;
        }
        // Trait impls only: `… Actor for <Type>` with `Actor` as the final
        // path segment of the trait (token-bounded, so `ReplicaActor` as a
        // *type* never matches).
        let Some(for_pos) = token_pos(&header, "for") else {
            i = j + 1;
            continue;
        };
        if !contains_token(&header[..for_pos], "Actor") {
            i = j + 1;
            continue;
        }
        let name: String = header[for_pos + 3..]
            .trim_start()
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == ':')
            .collect();
        let name = name.rsplit("::").next().unwrap_or(&name).to_string();
        // Brace-match the impl body and look for a state_digest method.
        let mut depth = 0i32;
        let mut k = j;
        let mut body = String::new();
        while k < chars.len() {
            match chars[k] {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            body.push(chars[k]);
            k += 1;
        }
        if !body.contains("fn state_digest") && !name.is_empty() {
            found.push((name, line_of(&chars, i)));
        }
        i = k.max(j + 1);
    }
    found
}

/// The std sync/IO tokens lint (f) rejects inside actor handler bodies.
const BLOCKING_TOKENS: &[(&str, &str)] = &[
    (
        "Mutex",
        "actor state is single-threaded under the simulator; use plain fields",
    ),
    (
        "RwLock",
        "actor state is single-threaded under the simulator; use plain fields",
    ),
    (
        "Condvar",
        "OS-level waiting stalls the virtual clock; schedule a simulator timer",
    ),
    (
        "Barrier",
        "OS-level waiting stalls the virtual clock; coordinate through messages",
    ),
    (
        "mpsc",
        "OS channels bypass the simulated network; send simulator messages",
    ),
    (
        "park",
        "OS-level waiting stalls the virtual clock; schedule a simulator timer",
    ),
    (
        "std::fs",
        "filesystem IO inside a handler is unreplayable; hoist it out of the actor",
    ),
    (
        "File",
        "filesystem IO inside a handler is unreplayable; hoist it out of the actor",
    ),
    (
        "TcpStream",
        "real sockets bypass the simulated network; send simulator messages",
    ),
    (
        "TcpListener",
        "real sockets bypass the simulated network; send simulator messages",
    ),
    (
        "UdpSocket",
        "real sockets bypass the simulated network; send simulator messages",
    ),
    (
        "stdin",
        "console IO inside a handler blocks the deterministic run",
    ),
];

/// Thread primitives and foreign calls additionally rejected under
/// [`Config::blocking_everywhere_paths`]: the real transport's event-loop
/// thread and its one system call outside std are legitimate there, but
/// each spawn/sleep/unsafe site must be explicitly justified, not
/// ambient. String contents are blanked before matching, so `extern`
/// stands for `extern "C"`.
const EVENT_LOOP_TOKENS: &[(&str, &str)] = &[
    (
        "thread::spawn",
        "an unsupervised thread escapes the supervision tree",
    ),
    (
        "thread::Builder",
        "an unsupervised thread escapes the supervision tree",
    ),
    (
        "thread::sleep",
        "a sleeping event loop stalls every actor it hosts",
    ),
    (
        "unsafe",
        "the compiler no longer checks what this block does",
    ),
    (
        "extern",
        "a foreign function is only as safe as its hand-written signature",
    ),
];

/// Finds std sync/IO tokens inside `fn on_message` / `fn on_timer`
/// bodies. Returns `(line, token, guidance)` triples.
fn find_blocking_in_actor_bodies(stripped: &str) -> Vec<(usize, &'static str, &'static str)> {
    let chars: Vec<char> = stripped.chars().collect();
    let mut out = Vec::new();
    for callback in ["on_message", "on_timer"] {
        let len = callback.chars().count();
        let mut i = 0usize;
        while i + len <= chars.len() {
            if !is_keyword_at(&chars, i, callback) {
                i += 1;
                continue;
            }
            // Definitions only: the preceding non-whitespace token is `fn`
            // (call sites like `actor.on_message(…)` don't qualify).
            let mut p = i;
            while p > 0 && chars[p - 1].is_whitespace() {
                p -= 1;
            }
            if p < 2 || !is_keyword_at(&chars, p - 2, "fn") {
                i += len;
                continue;
            }
            // Walk past the signature to the body's opening brace.
            let mut j = i + len;
            let mut nesting = 0i32;
            let open = loop {
                match chars.get(j) {
                    None => break None,
                    Some('(') | Some('[') => nesting += 1,
                    Some(')') | Some(']') => nesting -= 1,
                    Some('{') if nesting == 0 => break Some(j),
                    Some(';') if nesting == 0 => break None, // trait decl, no body
                    _ => {}
                }
                j += 1;
            };
            let Some(open) = open else {
                i = j.max(i + len);
                continue;
            };
            // Brace-match the body and scan it token by token.
            let mut depth = 0i32;
            let mut k = open;
            while k < chars.len() {
                match chars[k] {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            for &(token, why) in BLOCKING_TOKENS {
                for pos in char_token_positions(&chars[open..k], token) {
                    out.push((line_of(&chars, open + pos), token, why));
                }
            }
            i = k.max(i + len);
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Every identifier-bounded occurrence of `token` in `chars`, as indices.
fn char_token_positions(chars: &[char], token: &str) -> Vec<usize> {
    let t: Vec<char> = token.chars().collect();
    let mut out = Vec::new();
    if t.is_empty() {
        return out;
    }
    let mut i = 0usize;
    while i + t.len() <= chars.len() {
        if chars[i..i + t.len()] == t[..] && is_keyword_at(chars, i, token) {
            out.push(i);
        }
        i += 1;
    }
    out
}

/// Audited exceptions, loaded from `crates/check/allowlist.txt`.
///
/// One entry per line: `<lint-id> <path-suffix> <substring>`, where the
/// entry suppresses findings of that lint in files whose path ends with
/// `path-suffix` and whose offending source line contains `substring`.
/// Blank lines and `#` comments are ignored.
///
/// `blocking-in-actor` entries additionally **require** a
/// ` -- <justification>` suffix after the substring — parsing fails
/// without one. Blocking primitives in the real-network backend are
/// audited one by one; an entry without a stated reason is not an audit.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

#[derive(Debug)]
struct AllowEntry {
    lint_id: String,
    path_suffix: String,
    substring: String,
    /// Required for `blocking-in-actor` entries (` -- <reason>` suffix).
    justification: Option<String>,
    used: std::cell::Cell<bool>,
}

impl Allowlist {
    /// Parses the allowlist format; returns an error message on a
    /// malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            let (Some(lint_id), Some(path_suffix), Some(substring)) =
                (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!(
                    "allowlist line {}: expected `<lint-id> <path-suffix> <substring>`",
                    lineno + 1
                ));
            };
            let substring = substring.trim();
            let (substring, justification) = if lint_id == "blocking-in-actor" {
                match substring.split_once(" -- ") {
                    Some((s, j)) if !s.trim().is_empty() && !j.trim().is_empty() => {
                        (s.trim().to_string(), Some(j.trim().to_string()))
                    }
                    _ => {
                        return Err(format!(
                            "allowlist line {}: blocking-in-actor entries must read \
                             `blocking-in-actor <path-suffix> <substring> -- <justification>` — \
                             a blocking primitive without a stated reason is not audited",
                            lineno + 1
                        ));
                    }
                }
            } else {
                (substring.to_string(), None)
            };
            entries.push(AllowEntry {
                lint_id: lint_id.to_string(),
                path_suffix: path_suffix.to_string(),
                substring,
                justification,
                used: std::cell::Cell::new(false),
            });
        }
        Ok(Allowlist { entries })
    }

    /// True if the finding matches an entry (marks the entry used).
    pub fn permits(&self, finding: &Finding) -> bool {
        let path = finding.file.to_string_lossy().replace('\\', "/");
        for e in &self.entries {
            if e.lint_id == finding.lint.id()
                && path.ends_with(&e.path_suffix)
                && finding.excerpt.contains(&e.substring)
            {
                e.used.set(true);
                return true;
            }
        }
        false
    }

    /// Entries that never matched a finding — stale audits worth pruning.
    pub fn unused(&self) -> Vec<String> {
        self.entries
            .iter()
            .filter(|e| !e.used.get())
            .map(|e| match &e.justification {
                Some(j) => format!("{} {} {} -- {}", e.lint_id, e.path_suffix, e.substring, j),
                None => format!("{} {} {}", e.lint_id, e.path_suffix, e.substring),
            })
            .collect()
    }
}

/// Recursively collects `.rs` files under `root` (or `root` itself if it
/// is a file), sorted for deterministic output.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    if root.is_file() {
        if root.extension().is_some_and(|e| e == "rs") {
            files.push(root.to_path_buf());
        }
        return Ok(files);
    }
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Scans a set of roots, applying the allowlist. Returns the surviving
/// findings, sorted by file and line.
pub fn scan_paths(
    roots: &[PathBuf],
    config: &Config,
    allowlist: &Allowlist,
) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for root in roots {
        for file in collect_rs_files(root)? {
            let source = std::fs::read_to_string(&file)?;
            findings.extend(
                scan_source(&file, &source, config)
                    .into_iter()
                    .filter(|f| !allowlist.permits(f)),
            );
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

/// Discovers protocol enum names by scanning the message definition files
/// for `pub enum` declarations; falls back to the defaults when a file is
/// missing (e.g. when linting fixtures outside the workspace).
pub fn discover_protocol_enums(workspace_root: &Path) -> Vec<String> {
    discover_pub_enums(
        workspace_root,
        &["crates/core/src/messages.rs", "crates/group/src/message.rs"],
        || Config::default().protocol_enums,
    )
}

/// Discovers the *extended* protocol surface for
/// [`Lint::ProtocolExhaustiveness`]: wire frames (`OrbMessage`,
/// `ReplyStatus`), group delivery events (`GroupEvent`, `GroupTimer`,
/// `Output`), replica commands (`ReplicaCommand`, `GroupMembership`),
/// exploration choices (`Choice`), detector verdicts (`PeerVerdict`),
/// policy directives (`AdaptationAction`) and fault-storm actions
/// (`ChaosAction`). Falls back to the defaults when the files are
/// missing.
pub fn discover_extended_protocol_enums(workspace_root: &Path) -> Vec<String> {
    discover_pub_enums(
        workspace_root,
        &[
            "crates/orb/src/wire.rs",
            "crates/group/src/api.rs",
            "crates/group/src/detector.rs",
            "crates/core/src/replica.rs",
            "crates/core/src/policy.rs",
            "crates/simnet/src/explore.rs",
            "crates/simnet/src/chaos.rs",
        ],
        || Config::default().extended_protocol_enums,
    )
}

fn discover_pub_enums(
    workspace_root: &Path,
    files: &[&str],
    fallback: impl FnOnce() -> Vec<String>,
) -> Vec<String> {
    let mut enums = Vec::new();
    for rel in files {
        let Ok(source) = std::fs::read_to_string(workspace_root.join(rel)) else {
            continue;
        };
        let stripped = strip_source(&source);
        for line in stripped.lines() {
            let line = line.trim();
            if let Some(rest) = line.strip_prefix("pub enum ") {
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() {
                    enums.push(name);
                }
            }
        }
    }
    if enums.is_empty() {
        enums = fallback();
    }
    enums.sort();
    enums.dedup();
    enums
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(name: &str, src: &str) -> Vec<Finding> {
        scan_source(Path::new(name), src, &Config::default())
    }

    #[test]
    fn flags_hashmap_in_code_but_not_in_comments() {
        let src = "use std::collections::HashMap; // HashMap is fine here\n";
        let findings = scan("proto.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, Lint::Nondeterminism);
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn does_not_flag_identifiers_containing_token() {
        let findings = scan("proto.rs", "struct MyHashMapLike; let sleepy = 1;\n");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn flags_wildcard_match_over_protocol_enum() {
        let src = r#"
fn f(m: ReplicatorMsg) {
    match m {
        ReplicatorMsg::Invoke { .. } => handle(),
        _ => {}
    }
}
"#;
        let findings = scan("proto.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, Lint::WildcardMatch);
        assert_eq!(findings[0].line, 5);
    }

    #[test]
    fn exhaustive_protocol_match_is_clean() {
        let src = r#"
fn f(m: GroupMsg) {
    match m {
        GroupMsg::Data { .. } => a(),
        GroupMsg::Ack { .. } => b(),
    }
}
"#;
        assert!(scan("proto.rs", src).is_empty());
    }

    #[test]
    fn wildcard_over_plain_enum_is_clean() {
        let src = r#"
fn f(t: u64, m: ReplicatorMsg) {
    match t {
        1 => send(ReplicatorMsg::Invoke { id: 0 }),
        _ => {}
    }
}
"#;
        // ReplicatorMsg:: appears in an arm *body*, not a pattern.
        assert!(scan("proto.rs", src).is_empty());
    }

    #[test]
    fn nested_match_wildcard_is_found() {
        let src = r#"
fn f(m: GroupMsg, k: u8) {
    match k {
        0 => match m {
            GroupMsg::Data { .. } => a(),
            _ => ignore(),
        },
        1 => b(),
        _ => c(),
    }
}
"#;
        let findings = scan("proto.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, Lint::WildcardMatch);
        assert_eq!(findings[0].line, 6);
    }

    #[test]
    fn unwrap_flagged_only_in_decode_files() {
        let src = "fn decode(b: &[u8]) -> Msg { parse(b).unwrap() }\n";
        assert_eq!(scan("cdr.rs", src).len(), 1);
        assert_eq!(scan("message.rs", src).len(), 1);
        assert!(scan("engine.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_test_module_is_ignored() {
        let src = "\
fn ok() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { super::parse(b\"x\").unwrap(); }
}
";
        assert!(scan("cdr.rs", src).is_empty());
    }

    #[test]
    fn allowlist_suppresses_and_tracks_usage() {
        let src = "use std::collections::HashMap;\nuse std::collections::HashSet;\n";
        let allow = Allowlist::parse("# audited\nnondeterminism proto.rs HashMap\n").unwrap();
        let findings: Vec<Finding> = scan("proto.rs", src)
            .into_iter()
            .filter(|f| !allow.permits(f))
            .collect();
        assert_eq!(findings.len(), 1);
        assert!(findings[0].excerpt.contains("HashSet"));
        assert!(allow.unused().is_empty());
    }

    #[test]
    fn malformed_allowlist_is_an_error() {
        assert!(Allowlist::parse("just-two fields\n").is_err());
    }

    #[test]
    fn digestless_actor_impl_is_flagged_in_required_paths() {
        let src = r#"
impl Actor for Widget {
    fn on_message(&mut self, ctx: &mut Context<'_>, from: ProcessId, msg: Message) {
        handle(msg);
    }
}
"#;
        let findings = scan("crates/core/src/widget.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].lint, Lint::DigestCoverage);
        assert_eq!(findings[0].line, 2);
        assert!(findings[0].message.contains("Widget"));
        // Outside the digest-required paths the same source is clean.
        assert!(scan("crates/bench/src/widget.rs", src).is_empty());
    }

    #[test]
    fn actor_impl_with_digest_is_clean() {
        let src = r#"
impl vd_simnet::actor::Actor for Widget {
    fn on_message(&mut self, ctx: &mut Context<'_>, from: ProcessId, msg: Message) {}
    fn state_digest(&self) -> Option<u64> { Some(0) }
}
"#;
        assert!(scan("crates/group/src/widget.rs", src).is_empty());
    }

    #[test]
    fn inherent_impl_on_actor_named_type_is_not_a_digest_finding() {
        // `ReplicaActor` contains the token `Actor` only as a suffix, and
        // an inherent impl has no `for` — neither may fire.
        let src = "impl ReplicaActor {\n    fn helper(&self) {}\n}\n";
        assert!(scan("crates/core/src/replica.rs", src).is_empty());
    }

    #[test]
    fn wildcard_over_extended_protocol_enum_is_flagged() {
        let src = r#"
fn f(m: OrbMessage) {
    match m {
        OrbMessage::Request { .. } => handle(),
        _ => {}
    }
}
"#;
        let findings = scan("proto.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].lint, Lint::ProtocolExhaustiveness);
        assert_eq!(findings[0].line, 5);
    }

    #[test]
    fn core_protocol_enum_reports_once_under_wildcard_match_only() {
        // GroupMsg is in both the core and (hypothetically) extended sets;
        // the finding must carry the original wildcard-match id, once.
        let mut config = Config::default();
        config.extended_protocol_enums.push("GroupMsg".into());
        let src = "fn f(m: GroupMsg) {\n    match m {\n        GroupMsg::Data { .. } => a(),\n        _ => b(),\n    }\n}\n";
        let findings = scan_source(Path::new("proto.rs"), src, &config);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].lint, Lint::WildcardMatch);
    }

    #[test]
    fn blocking_call_in_on_message_is_flagged() {
        let src = r#"
impl Actor for Widget {
    fn on_message(&mut self, ctx: &mut Context<'_>, from: ProcessId, msg: Message) {
        let guard = Mutex::new(0);
        std::fs::write("/tmp/state", b"x").ok();
    }
    fn state_digest(&self) -> Option<u64> { Some(0) }
}
"#;
        let findings = scan("crates/orb/src/widget.rs", src);
        let blocking: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.lint == Lint::BlockingInActor)
            .collect();
        assert_eq!(blocking.len(), 2, "{findings:?}");
        assert!(blocking[0].message.contains("Mutex"));
        assert!(blocking[1].message.contains("std::fs"));
    }

    #[test]
    fn blocking_token_outside_handler_bodies_is_clean() {
        let src = r#"
fn replay_counterexamples() {
    let data = std::fs::read_to_string("ce.jsonl").unwrap_or_default();
    drop(data);
}
impl Actor for Widget {
    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        ctx.send(self.peer, Message::new(0));
    }
    fn state_digest(&self) -> Option<u64> { Some(0) }
}
"#;
        assert!(scan("crates/orb/src/widget.rs", src).is_empty());
    }

    #[test]
    fn on_message_call_site_is_not_a_handler_body() {
        // `world.on_message(…)` followed by unrelated code containing a
        // Mutex must not be attributed to a handler.
        let src = "fn drive(w: &mut W) {\n    w.on_message(1);\n    let m = Mutex::new(0);\n}\n";
        assert!(scan("crates/orb/src/drive.rs", src).is_empty());
    }

    #[test]
    fn blocking_everywhere_paths_scan_whole_files_and_skip_nondeterminism() {
        // Outside handler bodies; would be clean under the default scope.
        let src = "\
extern \"C\" {
    fn ppoll(fds: *mut u8, n: u64, t: *const u8, m: *const u8) -> i32;
}
pub fn pump(socket: UdpSocket) {
    thread::spawn(move || loop {
        let now = Instant::now();
        drop(now);
        let _ = unsafe { ppoll(core::ptr::null_mut(), 0, core::ptr::null(), core::ptr::null()) };
    });
}
";
        let findings = scan("crates/node/src/transport.rs", src);
        assert!(
            findings.iter().all(|f| f.lint == Lint::BlockingInActor),
            "nondeterminism must be skipped for the real-network backend: {findings:?}"
        );
        for token in ["UdpSocket", "thread::spawn", "unsafe", "extern"] {
            assert!(
                findings
                    .iter()
                    .any(|f| f.message.contains(&format!("`{token}`"))),
                "no finding for {token}: {findings:?}"
            );
        }
        assert!(findings.iter().all(|f| f.message.contains("justification")));
        // The same source under a normal path: no handler bodies, so the
        // blocking lint is silent and nondeterminism flags the Instant.
        let normal = scan("crates/orb/src/pump.rs", src);
        assert_eq!(normal.len(), 1, "{normal:?}");
        assert_eq!(normal[0].lint, Lint::Nondeterminism);
    }

    #[test]
    fn blocking_allowlist_entries_require_a_justification() {
        assert!(Allowlist::parse("blocking-in-actor transport.rs UdpSocket\n").is_err());
        assert!(Allowlist::parse("blocking-in-actor transport.rs UdpSocket -- \n").is_err());
        let allow = Allowlist::parse(
            "blocking-in-actor transport.rs UdpSocket -- the send path of the UDP backend\n",
        )
        .unwrap();
        let findings = scan(
            "crates/node/src/transport.rs",
            "pub struct T { socket: UdpSocket }\n",
        );
        assert_eq!(findings.len(), 1);
        assert!(allow.permits(&findings[0]));
        assert!(allow.unused().is_empty());
        // The justification survives round-trips through unused() output.
        let stale = Allowlist::parse("blocking-in-actor other.rs park -- reason here\n").unwrap();
        assert_eq!(
            stale.unused(),
            vec!["blocking-in-actor other.rs park -- reason here".to_string()]
        );
    }

    #[test]
    fn discovers_extended_enums_falls_back_to_defaults() {
        let enums = discover_extended_protocol_enums(Path::new("/nonexistent"));
        assert!(enums.contains(&"OrbMessage".to_string()));
        assert!(enums.contains(&"Choice".to_string()));
    }
}
