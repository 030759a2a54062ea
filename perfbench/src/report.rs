//! Operation tallies, metrics, and the result line.

use std::fmt::Write;

/// Operations attempted and failed, with the first few failures kept
/// for the log.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Tally {
    /// Counts one operation; `why` describes it if it failed.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(why());
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarises.
    pub samples: usize,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
    }
}

/// Prints the human-readable table, then the result as one JSON line
/// (the last line of standard output).
pub fn print(title: &str, tally: &Tally, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<36} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "  operations attempted {}, failed {}",
        tally.attempted, tally.failed
    );
    for note in tally.notes() {
        eprintln!("perfbench: FAILED: {note}");
    }
    println!("{}", json_line(tally, metrics));
}

pub fn json_line(tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is not finite", m.name);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}
