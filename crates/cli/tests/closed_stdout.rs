//! A closed stdout ends a command quietly. Each case runs the `fairsel`
//! binary with the read end of its stdout pipe already dropped, so the
//! first write fails with `BrokenPipe`; the command must exit without a
//! panic or a backtrace on stderr.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// Run `fairsel args` with a stdout nobody reads.
fn run_with_closed_stdout(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_fairsel"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn fairsel")
}

fn assert_quiet(args: &[&str]) {
    let out = run_with_closed_stdout(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
    assert!(out.status.success(), "{args:?}: {:?}\n{stderr}", out.status);
    assert!(stderr.is_empty(), "{args:?} wrote to stderr:\n{stderr}");
}

#[test]
fn closed_stdout_ends_commands_quietly() {
    let dir = std::env::temp_dir().join(format!("fairsel_closed_stdout_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv: PathBuf = dir.join("f.csv");
    let csv = csv.to_str().unwrap();
    // `gen` writes its CSV before it prints, so the file exists after.
    assert_quiet(&["gen", "--fixture", "1a", "--rows", "400", "--out", csv]);
    assert!(std::fs::metadata(csv).unwrap().len() > 0);
    assert_quiet(&["select", "--csv", csv, "--workers", "1"]);
    assert_quiet(&["methods", "--csv", csv]);
    assert_quiet(&["help"]);
    std::fs::remove_dir_all(&dir).ok();
}
