//! The artifact registry: every table and figure the harness
//! regenerates, its paper caption, and the `== caption ==` block every
//! surface prints it in.
//!
//! One [`Artifact`] names one rendering. [`Artifact::regenerate`] runs
//! its experiment drivers through an [`Executor`], and
//! [`Artifact::block`] frames the text (or its failure) exactly as
//! `results_regenerated.txt` pins it, so the `regen` CLI, the `regend`
//! daemon and the fault campaigns all emit the same bytes.

use cpu_models::CpuId;

use crate::experiments as exp;
use crate::{Executor, ExperimentError};

/// Every regenerable artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// Table 1: default mitigations.
    Table1,
    /// Table 2: CPU inventory.
    Table2,
    /// Figure 2: LEBench attribution.
    Figure2,
    /// Figure 3: Octane attribution.
    Figure3,
    /// Table 3: entry/exit primitives.
    Table3,
    /// Table 4: verw.
    Table4,
    /// Table 5: indirect branches.
    Table5,
    /// Table 6: IBPB.
    Table6,
    /// Table 7: RSB fill.
    Table7,
    /// Table 8: lfence.
    Table8,
    /// Figure 5: SSBD on PARSEC.
    Figure5,
    /// Table 9: speculation matrix, IBRS off.
    Table9,
    /// Table 10: speculation matrix, IBRS on.
    Table10,
    /// §4.4 VM workloads.
    VmWorkloads,
    /// §6.2.2 eIBRS bimodal entries.
    EibrsBimodal,
    /// The eBPF/kernel boundary (the paper's acknowledged gap).
    EbpfBoundary,
    /// §7 what-ifs + design ablations (beyond the paper's artifacts).
    Discussion,
    /// Targeted Spectre-V1 hardening vs the blanket policies, across the
    /// paper CPUs and the extended RISC-V catalog (beyond the paper).
    Targeted,
}

/// One regenerated artifact: its text plus whether any slice had to be
/// bridged over a permanently failed lattice cell.
#[derive(Debug, Clone)]
pub struct ArtifactOutput {
    /// The plain-text rendering.
    pub text: String,
    /// Whether the artifact is partial (degraded attribution slices).
    pub degraded: bool,
}

impl Artifact {
    /// All artifacts in paper order.
    pub const ALL: [Artifact; 18] = [
        Artifact::Table1,
        Artifact::Table2,
        Artifact::Figure2,
        Artifact::Figure3,
        Artifact::Table3,
        Artifact::Table4,
        Artifact::Table5,
        Artifact::Table6,
        Artifact::Table7,
        Artifact::Table8,
        Artifact::Figure5,
        Artifact::Table9,
        Artifact::Table10,
        Artifact::VmWorkloads,
        Artifact::EibrsBimodal,
        Artifact::EbpfBoundary,
        Artifact::Discussion,
        Artifact::Targeted,
    ];

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Artifact::Table1 => "table1",
            Artifact::Table2 => "table2",
            Artifact::Figure2 => "figure2",
            Artifact::Figure3 => "figure3",
            Artifact::Table3 => "table3",
            Artifact::Table4 => "table4",
            Artifact::Table5 => "table5",
            Artifact::Table6 => "table6",
            Artifact::Table7 => "table7",
            Artifact::Table8 => "table8",
            Artifact::Figure5 => "figure5",
            Artifact::Table9 => "table9",
            Artifact::Table10 => "table10",
            Artifact::VmWorkloads => "vm",
            Artifact::EibrsBimodal => "eibrs-bimodal",
            Artifact::EbpfBoundary => "ebpf",
            Artifact::Discussion => "discussion",
            Artifact::Targeted => "targeted",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<Artifact> {
        Artifact::ALL.iter().copied().find(|a| a.name() == name)
    }

    /// Maps an experiment driver name onto the artifact whose sweep
    /// computes its cells. Identical for every driver except the two that
    /// feed the discussion artifact.
    pub fn for_experiment(experiment: &str) -> Option<Artifact> {
        match experiment {
            "ablations" | "smt" => Some(Artifact::Discussion),
            other => Artifact::parse(other),
        }
    }

    /// The closest valid artifact name by edit distance, for
    /// "did you mean" hints on unknown names. `None` when nothing is
    /// plausibly close.
    pub fn suggest(name: &str) -> Option<&'static str> {
        Artifact::ALL
            .iter()
            .map(|a| (edit_distance(name, a.name()), a.name()))
            .min()
            .filter(|(d, _)| *d <= 3 && *d < name.len())
            .map(|(_, n)| n)
    }

    /// Paper caption.
    pub fn caption(self) -> &'static str {
        match self {
            Artifact::Table1 => "Table 1: default mitigations used by Linux on each processor",
            Artifact::Table2 => "Table 2: evaluated CPUs",
            Artifact::Figure2 => "Figure 2: mitigation overhead on LEBench (geomean, attributed)",
            Artifact::Figure3 => "Figure 3: Octane slowdown from JS and OS mitigations",
            Artifact::Table3 => "Table 3: syscall/sysret/swap-cr3 cycles",
            Artifact::Table4 => "Table 4: verw buffer-clear cycles",
            Artifact::Table5 => "Table 5: indirect branch cycles per mitigation",
            Artifact::Table6 => "Table 6: IBPB cycles",
            Artifact::Table7 => "Table 7: RSB stuffing cycles",
            Artifact::Table8 => "Table 8: lfence cycles",
            Artifact::Figure5 => "Figure 5: SSBD slowdown on PARSEC",
            Artifact::Table9 => "Table 9: speculation matrix (IBRS disabled)",
            Artifact::Table10 => "Table 10: speculation matrix (IBRS enabled)",
            Artifact::VmWorkloads => "Section 4.4: VM workloads",
            Artifact::EibrsBimodal => "Section 6.2.2: eIBRS bimodal kernel-entry latency",
            Artifact::EbpfBoundary => {
                "Beyond the paper: the eBPF/kernel boundary (verifier masking cost)"
            }
            Artifact::Discussion => {
                "Beyond the paper: section 7 what-ifs and design ablations"
            }
            Artifact::Targeted => {
                "Beyond the paper: targeted Spectre V1 hardening vs blanket (incl. RISC-V)"
            }
        }
    }

    /// Frames one artifact as every surface prints it: `== caption ==`,
    /// the text and a blank line, or `== caption == FAILED` and a blank
    /// line when there is no text. Concatenated in paper order, these
    /// blocks are `results_regenerated.txt`.
    pub fn block(self, text: Option<&str>) -> String {
        match text {
            Some(text) => format!("== {} ==\n{text}\n", self.caption()),
            None => format!("== {} == FAILED\n\n", self.caption()),
        }
    }

    /// Regenerates the artifact through `exec` (worker pool, retry,
    /// watchdog, fault injection, cell cache, journaling) and returns
    /// its text rendering.
    ///
    /// `quick` trades workload size for speed where the driver supports
    /// it (used by tests; the full run is what EXPERIMENTS.md records).
    pub fn regenerate(
        self,
        quick: bool,
        exec: &Executor,
    ) -> Result<ArtifactOutput, ExperimentError> {
        let text = match self {
            Artifact::Table1 => exp::table1::render(&exp::table1::run(exec)?),
            Artifact::Table2 => exp::table2::render(),
            Artifact::Figure2 => {
                let fig = exp::figure2::run(exec, &CpuId::ALL, quick)?;
                let degraded = !fig.failures().is_empty();
                return Ok(ArtifactOutput { text: exp::figure2::render(&fig), degraded });
            }
            Artifact::Figure3 => {
                exp::figure3::render(&exp::figure3::run(exec, &CpuId::ALL, quick)?)
            }
            Artifact::Table3 => exp::tables3to8::render_table3(exec)?,
            Artifact::Table4 => exp::tables3to8::render_table4(exec)?,
            Artifact::Table5 => exp::tables3to8::render_table5(exec)?,
            Artifact::Table6 => exp::tables3to8::render_table6(exec)?,
            Artifact::Table7 => exp::tables3to8::render_table7(exec)?,
            Artifact::Table8 => exp::tables3to8::render_table8(exec)?,
            Artifact::Figure5 => exp::figure5::render(&exp::figure5::run(exec, &CpuId::ALL)?),
            Artifact::Table9 => exp::tables9and10::render(&exp::tables9and10::run(exec, false)?),
            Artifact::Table10 => exp::tables9and10::render(&exp::tables9and10::run(exec, true)?),
            Artifact::VmWorkloads => {
                let cpus: &[CpuId] = if quick {
                    &[CpuId::SkylakeClient, CpuId::CascadeLake]
                } else {
                    &CpuId::ALL
                };
                exp::vm::render(&exp::vm::run(exec, cpus)?)
            }
            Artifact::EibrsBimodal => {
                let mut s = String::new();
                for id in [CpuId::CascadeLake, CpuId::IceLakeClient, CpuId::IceLakeServer] {
                    s.push_str(&format!("{}:\n", id.microarch()));
                    s.push_str(&exp::eibrs_bimodal::render(&exp::eibrs_bimodal::run(
                        exec,
                        &id.model(),
                        128,
                    )?));
                }
                s
            }
            Artifact::EbpfBoundary => {
                let cpus: &[CpuId] = if quick {
                    &[CpuId::Broadwell, CpuId::IceLakeServer]
                } else {
                    &CpuId::ALL
                };
                exp::ebpf::render(&exp::ebpf::run(exec, cpus)?)
            }
            Artifact::Discussion => {
                let cpus: &[CpuId] = if quick {
                    &[CpuId::SkylakeClient, CpuId::IceLakeServer]
                } else {
                    &CpuId::ALL
                };
                let mut s = String::new();
                s.push_str("Spectre V2 strategy (LEBench overhead, V2 isolated):\n");
                s.push_str(&exp::ablations::render_v2_strategies(exec, cpus)?);
                s.push_str("\nSection 7 what-ifs (suite-score gains):\n");
                s.push_str(&exp::ablations::render_discussion(exec, cpus)?);
                let a = exp::ablations::pcid_ablation(exec, CpuId::Broadwell)?;
                s.push_str(&format!(
                    "\nPCID ablation on Broadwell: PTI overhead {:.1}% with PCID, {:.1}% without\n",
                    a.with_pcid * 100.0,
                    a.without_pcid * 100.0
                ));
                s.push_str("\nMDS: verw vs disabling SMT (Table 1's '!'):\n");
                s.push_str(&exp::smt::render(&exp::smt::run(
                    exec,
                    &[CpuId::Broadwell, CpuId::SkylakeClient, CpuId::CascadeLake],
                )?));
                s
            }
            Artifact::Targeted => exp::targeted::render(&exp::targeted::run(exec, quick)?),
        };
        // Figure 2 is the one artifact that reports degraded slices.
        Ok(ArtifactOutput { text, degraded: false })
    }
}

/// Levenshtein edit distance (insert/delete/substitute, all cost 1);
/// powers [`Artifact::suggest`]. Both strings are short CLI names, so
/// the O(nm) two-row DP is plenty.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_names_round_trip() {
        for a in Artifact::ALL {
            assert_eq!(Artifact::parse(a.name()), Some(a));
        }
        assert_eq!(Artifact::parse("nope"), None);
    }

    #[test]
    fn experiment_names_map_onto_artifacts() {
        assert_eq!(Artifact::for_experiment("figure2"), Some(Artifact::Figure2));
        assert_eq!(Artifact::for_experiment("table3"), Some(Artifact::Table3));
        assert_eq!(Artifact::for_experiment("ablations"), Some(Artifact::Discussion));
        assert_eq!(Artifact::for_experiment("smt"), Some(Artifact::Discussion));
        assert_eq!(Artifact::for_experiment("eibrs-bimodal"), Some(Artifact::EibrsBimodal));
        assert_eq!(Artifact::for_experiment("nope"), None);
    }

    #[test]
    fn suggestions_catch_typos_but_not_noise() {
        // Ties (figure2/3/5 are all one edit away) break toward the
        // lexicographically smallest candidate.
        assert_eq!(Artifact::suggest("figure4"), Some("figure2"));
        assert_eq!(Artifact::suggest("tabel1"), Some("table1"));
        assert_eq!(Artifact::suggest("dicussion"), Some("discussion"));
        assert_eq!(Artifact::suggest("vms"), Some("vm"));
        assert_eq!(Artifact::suggest("zzzzzzzzzz"), None);
        // An exact name suggests itself at distance zero (callers only
        // consult suggest() after parse() failed, so this is moot, but
        // pin it down).
        assert_eq!(Artifact::suggest("table1"), Some("table1"));
    }

    #[test]
    fn edit_distance_is_levenshtein() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("figure2", "figure3"), 1);
        assert_eq!(edit_distance("table", "tabel"), 2);
    }

    #[test]
    fn blocks_frame_text_or_failure() {
        assert_eq!(
            Artifact::Table6.block(Some("row\n")),
            "== Table 6: IBPB cycles ==\nrow\n\n"
        );
        assert_eq!(Artifact::Table6.block(None), "== Table 6: IBPB cycles == FAILED\n\n");
    }

    #[test]
    fn cheap_artifacts_regenerate() {
        let exec = Executor::default();
        for a in [Artifact::Table1, Artifact::Table2, Artifact::Table9, Artifact::Table10] {
            let s = a.regenerate(true, &exec).unwrap();
            assert!(!s.degraded);
            assert!(s.text.lines().count() >= 8, "{}:\n{}", a.name(), s.text);
        }
    }
}
