//! The `figures` binary's flag handling: a selection it does not know
//! is an error, not an empty run.

use std::process::Command;

fn figures(flag: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg(flag)
        .output()
        .expect("figures runs")
}

#[test]
fn unknown_selections_exit_2_and_name_the_known_flags() {
    // `--staging` names a retired study; `--nosuch` never existed.
    for flag in ["--staging", "--nosuch"] {
        let out = figures(flag);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(out.stdout.is_empty(), "{flag} printed a table");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "{flag}: {err}");
        assert!(
            err.contains("--table1") && err.contains("--barrier"),
            "{err}"
        );
    }
}

#[test]
fn a_known_selection_exits_0() {
    let out = figures("--table1");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table 1"));
}
