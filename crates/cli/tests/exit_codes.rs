//! Exit codes and output streams of the `nisim` binary itself.

use std::process::{Command, Output};

fn nisim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nisim"))
        .args(args)
        .output()
        .expect("nisim binary runs")
}

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    for flag in ["--help", "-h", "help"] {
        let out = nisim(&[flag]);
        assert_eq!(out.status.code(), Some(0), "nisim {flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage:"), "nisim {flag}: {stdout}");
        assert!(out.stderr.is_empty(), "nisim {flag} wrote to stderr");
    }
}

#[test]
fn unknown_subcommand_exits_two_with_usage_on_stderr() {
    let out = nisim(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown subcommand \"frobnicate\""),
        "{stderr}"
    );
    assert!(stderr.contains("usage:"), "{stderr}");
}
