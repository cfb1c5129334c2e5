//! The `experiments` binary refuses input it does not understand: an
//! unknown section name or flag prints the usage and exits 2 before any
//! testbed is built.

use std::process::Command;

#[test]
fn unknown_section_or_flag_exits_2_before_building_a_testbed() {
    for (argv, bad) in [
        (&["fig7", "--scale", "tiny", "--out", "-"][..], "fig7"),
        (&["--scael", "tiny"], "--scael"),
        (&["fig3", "-x", "--scale", "tiny"], "-x"),
        (&["serve", "--scale", "tiny"], "serve"),
        (&["fig3", "--mutate", "3"], "--mutate"),
        (&["--pll-load", "x", "fig3"], "--pll-load"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(argv)
            .output()
            .expect("experiments starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{argv:?} ran: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(stderr.contains(&format!("'{bad}'")), "{argv:?}: {stderr}");
        assert!(stderr.contains("usage: experiments"), "{argv:?}: {stderr}");
    }
}
