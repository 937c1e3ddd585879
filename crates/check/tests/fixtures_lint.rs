//! End-to-end lint tests over the fixture files: each known-bad fixture
//! must trip exactly its lint, and the clean fixture must produce zero
//! findings (no false positives from comments, strings or test modules).

use std::path::{Path, PathBuf};

use vd_check::{scan_paths, scan_source, Allowlist, Config, Lint};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn scan_fixture(name: &str) -> Vec<vd_check::Finding> {
    let path = fixture(name);
    let source = std::fs::read_to_string(&path).unwrap();
    scan_source(&path, &source, &Config::default())
}

#[test]
fn nondeterminism_fixture_trips_every_token() {
    let findings = scan_fixture("bad_nondeterminism.rs");
    assert!(
        findings.iter().all(|f| f.lint == Lint::Nondeterminism),
        "{findings:?}"
    );
    for token in [
        "HashMap",
        "HashSet",
        "Instant",
        "SystemTime",
        "thread::sleep",
        "thread_rng",
    ] {
        assert!(
            findings.iter().any(|f| f.message.contains(token)),
            "no finding for {token}: {findings:?}"
        );
    }
}

#[test]
fn wildcard_fixture_trips_the_match_lint() {
    let findings = scan_fixture("bad_wildcard_match.rs");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].lint, Lint::WildcardMatch);
    assert!(findings[0].message.contains("ReplicatorMsg"));
    // The wildcard arm in the fixture is on line 10.
    assert_eq!(findings[0].line, 10);
}

#[test]
fn decode_fixture_trips_unwrap_and_expect() {
    let findings = scan_fixture("bad_decode/cdr.rs");
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.lint == Lint::DecodeUnwrap));
}

#[test]
fn clean_fixture_has_no_findings() {
    let findings = scan_fixture("clean.rs");
    assert!(findings.is_empty(), "false positives: {findings:?}");
}

#[test]
fn scanning_the_fixture_tree_finds_all_bad_files() {
    let roots = vec![fixture("")];
    let findings = scan_paths(&roots, &Config::default(), &Allowlist::default()).unwrap();
    let files: std::collections::BTreeSet<String> = findings
        .iter()
        .map(|f| f.file.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    assert!(files.contains("bad_nondeterminism.rs"));
    assert!(files.contains("bad_wildcard_match.rs"));
    assert!(files.contains("cdr.rs"));
    assert!(!files.contains("clean.rs"));
}

#[test]
fn allowlist_can_suppress_a_fixture_finding() {
    let allow = Allowlist::parse(
        "decode-unwrap bad_decode/cdr.rs read_u32\ndecode-unwrap bad_decode/cdr.rs read_u8\n",
    )
    .unwrap();
    let roots = vec![fixture("bad_decode")];
    let findings = scan_paths(&roots, &Config::default(), &allow).unwrap();
    assert!(findings.is_empty(), "{findings:?}");
    assert!(allow.unused().is_empty());
}

#[test]
fn digest_coverage_fixture_trips_under_required_paths() {
    let path = fixture("bad_digest_coverage.rs");
    let source = std::fs::read_to_string(&path).unwrap();
    let config = Config {
        digest_required_paths: vec!["tests/fixtures".into()],
        ..Config::default()
    };
    let findings = scan_source(&path, &source, &config);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].lint, Lint::DigestCoverage);
    assert!(findings[0].message.contains("DigestlessWidget"));
    // Outside the required paths the same file is clean — the lint is a
    // per-crate contract, not a global one.
    assert!(scan_source(&path, &source, &Config::default()).is_empty());
}

#[test]
fn protocol_exhaustiveness_fixture_trips_on_extended_enums() {
    let findings = scan_fixture("bad_protocol_exhaustiveness.rs");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].lint, Lint::ProtocolExhaustiveness);
    assert!(findings[0].message.contains("OrbMessage"));
    // The wildcard arm in the fixture is on line 8.
    assert_eq!(findings[0].line, 8);
}

#[test]
fn blocking_fixture_trips_in_both_handlers_only() {
    let findings = scan_fixture("bad_blocking_in_actor.rs");
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.lint == Lint::BlockingInActor));
    assert!(findings[0].message.contains("Mutex"));
    assert!(findings[1].message.contains("std::fs"));
    // The free `persist` helper at the bottom of the fixture uses
    // std::fs too and must NOT be flagged (both findings are above it).
    let source = std::fs::read_to_string(fixture("bad_blocking_in_actor.rs")).unwrap();
    let persist_line = source
        .lines()
        .position(|l| l.contains("fn persist"))
        .unwrap()
        + 1;
    assert!(findings.iter().all(|f| f.line < persist_line));
}

#[test]
fn event_loop_fixture_is_clean_by_default_but_fully_flagged_whole_file() {
    let path = fixture("node_event_loop.rs");
    let source = std::fs::read_to_string(&path).unwrap();
    // Default scope: no on_message/on_timer bodies, so the blocking lint
    // is silent (the Mutex/UdpSocket/thread uses sit in free functions
    // and fields); only nondeterminism notices the thread::sleep.
    let default_findings = scan_source(&path, &source, &Config::default());
    assert!(
        default_findings
            .iter()
            .all(|f| f.lint == Lint::Nondeterminism),
        "handler-scoped blocking scan must not reach free functions: {default_findings:?}"
    );
    // Real-network-backend scope: every blocking and thread primitive in
    // the file is a finding, and each says it needs a justification.
    let config = Config {
        blocking_everywhere_paths: vec!["tests/fixtures".into()],
        ..Config::default()
    };
    let findings = scan_source(&path, &source, &config);
    assert!(findings.iter().all(|f| f.lint == Lint::BlockingInActor));
    for token in [
        "UdpSocket",
        "Mutex",
        "thread::spawn",
        "thread::sleep",
        "unsafe",
        "extern",
    ] {
        assert!(
            findings.iter().any(|f| f.message.contains(token)),
            "no whole-file finding for {token}: {findings:?}"
        );
    }
    assert!(findings.iter().all(|f| f.message.contains("justification")));
    // Each finding can only be silenced by a justified entry …
    assert!(Allowlist::parse("blocking-in-actor node_event_loop.rs UdpSocket\n").is_err());
    let allow = Allowlist::parse(
        "blocking-in-actor node_event_loop.rs UdpSocket -- the pump's receive socket\n",
    )
    .unwrap();
    let socket_findings: Vec<_> = findings
        .iter()
        .filter(|f| f.message.contains("UdpSocket"))
        .collect();
    assert!(!socket_findings.is_empty());
    assert!(socket_findings.iter().all(|f| allow.permits(f)));
}

#[test]
fn real_workspace_is_clean() {
    // The acceptance bar: the protocol crates and the real-network
    // backend pass their own linter, under the same configuration the CLI
    // uses — discovered protocol enums (core + extended) and the
    // checked-in allowlist.
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let repo_root = workspace.parent().unwrap();
    let roots: Vec<PathBuf> = ["core", "group", "orb", "simnet", "node/src"]
        .iter()
        .map(|c| workspace.join(c))
        .collect();
    let config = Config {
        protocol_enums: vd_check::discover_protocol_enums(repo_root),
        extended_protocol_enums: vd_check::discover_extended_protocol_enums(repo_root),
        ..Config::default()
    };
    let allowlist_text =
        std::fs::read_to_string(repo_root.join("crates/check/allowlist.txt")).unwrap_or_default();
    let allowlist = Allowlist::parse(&allowlist_text).unwrap();
    let findings = scan_paths(&roots, &config, &allowlist).unwrap();
    assert!(
        findings.is_empty(),
        "workspace lint findings: {findings:#?}"
    );
    // The stale-entry contract: every allowlist entry must still cover a
    // live finding.
    assert!(
        allowlist.unused().is_empty(),
        "stale allowlist entries: {:?}",
        allowlist.unused()
    );
}
