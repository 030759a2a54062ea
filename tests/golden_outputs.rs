//! The golden-output acceptance test: regenerating every artifact at
//! the default seed, in-process, must reproduce the committed
//! `results_regenerated.txt` byte for byte.
//!
//! This pins the entire pipeline — simulator timing, noise seeding,
//! statistics, attribution, rendering — so any change that shifts a
//! published number is caught in review, deliberately. If a change is
//! *supposed* to move numbers (e.g. a statistics fix), regenerate the
//! file and commit it alongside the change:
//!
//! ```text
//! cargo run --release -p bench --bin regen > results_regenerated.txt
//! ```
//!
//! This is the full sweep (not `--quick`), so it is the slowest test in
//! the suite by design; everything else covers the quick variants.
//!
//! It also pins the sweep's simulated work: committed instructions,
//! transient instructions and transient windows, as the process-wide
//! `uarch` counters total them. It is the only test in this binary, so
//! those counters see exactly the sweep. A change that only makes the
//! simulator faster keeps all three; a change to what is simulated moves
//! them, and updates the pin with the golden file.

use bench::{render_report, run_regen, RegenOptions};

#[test]
fn full_sweep_matches_committed_golden_file() {
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/results_regenerated.txt");
    let golden = std::fs::read_to_string(golden_path).expect("committed golden file exists");

    let report = run_regen(&RegenOptions::default()).expect("no journal, so no I/O to fail");
    assert!(report.is_clean(), "failures: {:?}, degraded: {:?}", report.failures(), report.degraded());
    assert_eq!(
        uarch::pmc::global::snapshot(),
        (187_690_400, 577_548_160, 14_062_681),
        "the sweep's (instructions, transient instructions, transient windows)"
    );
    let rendered = render_report(&report);

    if rendered != golden {
        // Byte equality failed; point at the first diverging line so the
        // failure names the artifact instead of dumping both documents.
        for (i, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
            assert_eq!(
                got,
                want,
                "first divergence at line {} (regenerate results_regenerated.txt if this \
                 change is meant to move published numbers)",
                i + 1
            );
        }
        assert_eq!(
            rendered.lines().count(),
            golden.lines().count(),
            "line counts differ (one output is a prefix of the other)"
        );
        panic!("outputs differ only in trailing whitespace or final newline");
    }
}
