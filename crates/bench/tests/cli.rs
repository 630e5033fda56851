//! `repro`'s command line: a command it does not run, or a flag value it
//! cannot read, is an error, not a silent no-op or a panic.

use std::process::Command;

#[test]
fn unknown_commands_exit_2_without_running_anything() {
    // `ablate-sampling` was a command once; a script that still calls it
    // must fail rather than pass having run nothing.
    for cmd in ["nosuchcmd", "ablate-sampling"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg(cmd)
            .output()
            .expect("running repro");
        assert_eq!(out.status.code(), Some(2), "repro {cmd}");
        assert!(out.stdout.is_empty(), "repro {cmd} printed to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(cmd), "repro {cmd} stderr: {stderr}");
    }
}

#[test]
fn missing_or_malformed_flag_values_exit_2_naming_the_flag() {
    for args in [
        &["fig4", "--seed"][..],
        &["fig4", "--seed", "abc"],
        &["fig3", "--sizes", "1,x"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("running repro");
        let shown = args.join(" ");
        assert_eq!(out.status.code(), Some(2), "repro {shown}");
        assert!(out.stdout.is_empty(), "repro {shown} printed to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(args[1]), "repro {shown} stderr: {stderr}");
    }
}
