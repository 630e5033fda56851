//! `repro`'s command line: a command it does not run, or a flag value it
//! cannot read, is an error, not a silent no-op or a panic.

use std::process::Command;

/// Runs `repro args` and checks that it exits 2 having printed nothing to
/// stdout and `named` to stderr.
fn assert_refused(args: &[&str], named: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("running repro");
    let shown = args.join(" ");
    assert_eq!(out.status.code(), Some(2), "repro {shown}");
    assert!(out.stdout.is_empty(), "repro {shown} printed to stdout");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(named), "repro {shown} stderr: {stderr}");
}

#[test]
fn unknown_commands_exit_2_without_running_anything() {
    // `ablate-sampling` was a command once; a script that still calls it
    // must fail rather than pass having run nothing.
    for cmd in ["nosuchcmd", "ablate-sampling"] {
        assert_refused(&[cmd], cmd);
    }
}

#[test]
fn unknown_flags_exit_2_naming_the_flag() {
    // `bench --pool` was a flag once; every bench run now runs the pool
    // budgets.
    for args in [&["fig4", "--nosuchflag"][..], &["bench", "--pool"]] {
        assert_refused(args, args[1]);
    }
}

#[test]
fn missing_or_malformed_flag_values_exit_2_naming_the_flag() {
    // The bench cases are refused before anything is measured: a baseline
    // without a positive `hybrid.host_words_per_s` (missing, or not JSON)
    // and a drop budget outside [0, 1).
    let not_json = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    for args in [
        &["fig4", "--seed"][..],
        &["fig4", "--seed", "abc"],
        &["fig3", "--sizes", "1,x"],
        &["bench", "--baseline", "/nonexistent/baseline.json"],
        &["bench", "--baseline", not_json],
        &["bench", "--max-drop", "1.5"],
        &["bench", "--max-drop", "-0.1"],
    ] {
        assert_refused(args, args[1]);
    }
}
