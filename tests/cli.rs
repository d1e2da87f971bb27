//! Spawn tests for the `confluence` binary's command line: every
//! subcommand rejects unknown flags with exit code 2, the offending
//! argument, and a usage line — a typo'd `--qiuck` must not silently run
//! the full experiment it was trying to abbreviate — and every malformed
//! value fails before any workload is generated.
//!
//! These run the real binary via `CARGO_BIN_EXE_confluence`, so they pin
//! the end-to-end behaviour (argv → exit status → stderr), not just the
//! parser. None of them simulates anything.

use std::process::{Command, Output};

fn run(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_confluence"));
    cmd.args(args);
    // The suite's own memo-cap env must not leak into the spawned binary;
    // tests set exactly what they mean to test.
    cmd.env_remove("CONFLUENCE_MEMO_CAP");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("binary spawns")
}

/// Asserts exit 2 with every `needle` on stderr, and returns stderr.
fn assert_exit_2(args: &[&str], env: &[(&str, &str)], needles: &[&str]) -> String {
    let out = run(args, env);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {stderr}");
    for needle in needles {
        assert!(
            stderr.contains(needle),
            "{args:?}: stderr lacks {needle:?}: {stderr}"
        );
    }
    stderr
}

/// Asserts the rejection contract: exit 2, named offender, usage line.
fn assert_rejects(args: &[&str], offender: &str) {
    assert_exit_2(
        args,
        &[],
        &[&format!("unrecognized argument '{offender}'"), "usage:"],
    );
}

#[test]
fn every_subcommand_rejects_a_typo() {
    for (sub, typo) in [
        ("all", "--qiuck"),
        ("fig1", "--qiuck"),
        ("fig2", "--cvs"),
        ("fig6", "--markdwon"),
        ("fig7", "--thread"),
        ("fig8", "--store"),
        ("fig9", "--no-stor"),
        ("fig10", "--peers"),
        ("table2", "--connnect"),
        ("l1i-coverage", "--no-fast-path"),
        ("area-table", "--csvv"),
        ("timing-figs", "--sreial"),
        ("sweeps", "--stduy"),
        ("search", "--sede"),
        ("serve", "--bogus"),
    ] {
        assert_rejects(&[sub, typo], typo);
    }
}

#[test]
fn missing_or_unknown_subcommand_lists_the_subcommands() {
    for args in [&[] as &[&str], &["fig3"], &["--quick"]] {
        assert_exit_2(
            args,
            &[],
            &["subcommands: all fig1", "timing-figs sweeps search serve"],
        );
    }
    assert_exit_2(&["fig3"], &[], &["unknown subcommand 'fig3'"]);
    assert_exit_2(&[], &[], &["missing subcommand"]);
}

#[test]
fn strays_valued_switches_and_foreign_flags_are_rejected() {
    assert_rejects(&["fig9", "--quick", "extra"], "extra");
    // A switch given a value is not the switch.
    assert_rejects(&["table2", "--quick=1"], "--quick=1");
    assert_rejects(&["sweeps", "--stduy", "history"], "history");
    // Flags outside a subcommand's surface are unknown there.
    assert_rejects(&["fig1", "--list"], "--list");
    assert_rejects(&["sweeps", "--seed", "7"], "--seed");
    assert_rejects(&["area-table", "--quick"], "--quick");
    assert_rejects(&["fig1", "--serial"], "--serial");
    assert_rejects(&["timing-figs", "--quick", "--peers", "/tmp/x"], "--peers");
    assert_rejects(
        &[
            "serve",
            "--socket",
            "/tmp/unused.sock",
            "--peer-timeout",
            "10",
        ],
        "--peer-timeout",
    );
}

#[test]
fn area_table_renders_every_format() {
    // area-table simulates nothing, so it doubles as the cheap positive
    // control that strict parsing accepts the documented spellings.
    let out = run(&["area-table", "--csv"], &[]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("structure,"));
    let out = run(&["area-table", "--markdown"], &[]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("| structure |"));
}

#[test]
fn list_prints_every_registered_study() {
    let out = run(&["sweeps", "--list"], &[]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for study in confluence_sim::sweeps::registry() {
        assert!(
            stdout.contains(study.name),
            "sweeps --list lacks {}",
            study.name
        );
    }
    let out = run(&["search", "--list"], &[]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for study in confluence_search::registry() {
        assert!(
            stdout.contains(study.name),
            "search --list lacks {}",
            study.name
        );
    }
}

#[test]
fn bad_study_and_seed_values_exit_2() {
    for sub in ["sweeps", "search"] {
        assert_exit_2(
            &[sub, "--study", "no-such-study"],
            &[],
            &["no-such-study", "--list"],
        );
        assert_exit_2(&[sub, "--study"], &[], &["--study requires a study name"]);
    }
    assert_exit_2(
        &["search", "--study", "ipc-per-mm2", "--seed", "banana"],
        &[],
        &["--seed requires an integer value, got 'banana'"],
    );
}

#[test]
fn peer_flags_parse_strictly() {
    // A --peer with no value is its own exit-2 case with a precise
    // message, from every subcommand that accepts the flag.
    for args in [
        &["fig1", "--quick", "--peer"] as &[&str],
        &["all", "--quick", "--peer"],
        &["sweeps", "--quick", "--peer"],
        &["timing-figs", "--quick", "--peer"],
        &["search", "--quick", "--peer"],
        &["serve", "--socket", "/tmp/unused.sock", "--quick", "--peer"],
    ] {
        assert_exit_2(args, &[], &["--peer requires a socket path"]);
    }
    // --peer without a store has nowhere to promote fetched entries:
    // exit 2 pointing at --store-dir, before any workload generates.
    for sub in ["fig1", "search"] {
        assert_exit_2(
            &[sub, "--quick", "--no-store", "--peer", "/tmp/x.sock"],
            &[],
            &["--peer requires a persistent store", "--store-dir"],
        );
    }
    // --peer repeats; a second peer is not a repeated-flag error.
    let stderr = assert_exit_2(
        &["fig1", "--peer", "/tmp/a.sock", "--peer=/tmp/b.sock"],
        &[],
        &["--peer requires a persistent store"],
    );
    assert!(!stderr.contains("more than once"), "{stderr}");
}

#[test]
fn malformed_peer_timeout_is_rejected_with_or_without_peers() {
    for args in [
        &[
            "fig1",
            "--quick",
            "--peer",
            "/tmp/x.sock",
            "--store-dir",
            "/tmp/s",
            "--peer-timeout-ms",
            "soon",
        ] as &[&str],
        // No --peer: the timeout still parses, and still fails.
        &[
            "all",
            "--quick",
            "--csv",
            "--no-store",
            "--peer-timeout-ms",
            "soon",
        ],
    ] {
        assert_exit_2(
            args,
            &[],
            &["--peer-timeout-ms requires a millisecond count, got 'soon'"],
        );
    }
}

#[test]
fn repeated_single_valued_flags_exit_2() {
    for args in [
        &["fig1", "--threads", "2", "--threads", "4"] as &[&str],
        &["fig1", "--threads", "2", "--threads=4"],
        &["all", "--store-dir=/tmp/a", "--store-dir", "/tmp/b"],
    ] {
        assert_exit_2(args, &[], &["given more than once", "usage:"]);
    }
    assert_exit_2(
        &["fig1", "--threads", "2", "--threads=4"],
        &[],
        &["--threads given more than once"],
    );
}

#[test]
fn malformed_numbers_and_cache_caps_exit_2() {
    assert_exit_2(
        &["fig1", "--quick", "--store-cap-bytes", "banana"],
        &[],
        &["--store-cap-bytes requires a byte count, got 'banana'"],
    );
    assert_exit_2(
        &["all", "--threads", "many"],
        &[],
        &["--threads requires an integer value, got 'many'"],
    );
    // The memo cap is read from the environment by the library; the
    // binary validates it before generating any workload.
    assert_exit_2(
        &["fig1", "--quick"],
        &[("CONFLUENCE_MEMO_CAP", "banana")],
        &["CONFLUENCE_MEMO_CAP", "banana"],
    );
}

#[test]
fn serve_checks_its_own_command_line() {
    // A client-side environment never reaches the daemon's parse: the
    // offender on argv is what gets named.
    assert_rejects(
        &["serve", "--socket", "/tmp/unused.sock", "--bogus"],
        "--bogus",
    );
    assert_exit_2(
        &["serve", "--socket", "/tmp/unused.sock", "--bogus"],
        &[("CONFLUENCE_CONNECT", "/tmp/client.sock")],
        &["unrecognized argument '--bogus'"],
    );
    // --connect is a client flag; the daemon listens with --socket.
    assert_rejects(
        &[
            "serve",
            "--socket",
            "/tmp/unused.sock",
            "--connect",
            "/tmp/x",
        ],
        "--connect",
    );
    assert_exit_2(
        &["serve", "--quick"],
        &[],
        &["--socket PATH is required", "usage:"],
    );
}
