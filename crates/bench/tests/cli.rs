//! The harness binaries refuse malformed command lines: each case below
//! must exit with status 2, naming the offending flag or block id, before
//! any simulation runs, instead of quietly running a default in its place.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("harness binary starts");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn malformed_flag_values_exit_2() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_detcheck"), ["--seed", "nope"]),
        (env!("CARGO_BIN_EXE_audit"), ["--min-agreement", "NaN"]),
        (env!("CARGO_BIN_EXE_reproduce"), ["--scale", "nope"]),
        (env!("CARGO_BIN_EXE_audit"), ["--scale", "nope"]),
        (env!("CARGO_BIN_EXE_explain"), ["--scale", "nope"]),
    ] {
        let (code, stderr) = run(bin, &args);
        assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(args[0]), "{bin} {args:?}: {stderr}");
    }
}

#[test]
fn reproduce_rejects_an_unknown_flag() {
    let (code, stderr) = run(env!("CARGO_BIN_EXE_reproduce"), &["--htlm", "out.html"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--htlm"), "{stderr}");
}

#[test]
fn reproduce_rejects_an_unknown_block_id() {
    for args in [&["nosuchblock"][..], &["--only", "table5,tabel9"]] {
        let (code, stderr) = run(env!("CARGO_BIN_EXE_reproduce"), args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        let bad = args.last().unwrap().rsplit(',').next().unwrap();
        assert!(stderr.contains(bad), "{args:?}: {stderr}");
    }
}

#[test]
fn path_flags_refuse_the_next_flag_as_their_value() {
    for (bin, args) in [
        (
            env!("CARGO_BIN_EXE_reproduce"),
            &["--html", "--profile", "table1"][..],
        ),
        (env!("CARGO_BIN_EXE_audit"), &["--out", "--scenario"][..]),
    ] {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(args[0]), "{bin} {args:?}: {stderr}");
    }
}
