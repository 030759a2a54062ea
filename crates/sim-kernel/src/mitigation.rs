//! Mitigation selection: the logic behind the paper's Table 1.
//!
//! Given a CPU model and boot parameters, [`MitigationConfig::resolve`]
//! decides which mitigations the kernel deploys, following Linux's rules:
//! a mitigation is used iff the CPU is vulnerable, the hardware lacks a
//! fix, and the administrator did not disable it.

use spec_taint::V1Policy;
use uarch::model::{CpuModel, Vendor};

use crate::boot::{BootParams, SsbdMode};

/// Which Spectre V2 kernel mitigation is in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpectreV2Mode {
    /// No mitigation (`nospectre_v2` or master off).
    Off,
    /// Generic retpolines (pre-eIBRS Intel).
    RetpolineGeneric,
    /// AMD lfence retpolines.
    ///
    /// This was the Linux default on AMD at the time of the paper's
    /// measurements; Linux 5.15.28 later switched AMD to generic
    /// retpolines after the lfence/jmp race was published (§3.2, reference \[34\]).
    RetpolineAmd,
    /// Enhanced IBRS: set `IA32_SPEC_CTRL.IBRS` once at boot.
    Eibrs,
    /// Legacy IBRS: MSR write on every kernel entry/exit (never a
    /// production default; selectable for the Table 5/10 experiments).
    LegacyIbrs,
}

/// The resolved mitigation set for one boot of the simulated kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MitigationConfig {
    /// Kernel page-table isolation (Meltdown).
    pub pti: bool,
    /// PTE inversion (L1TF, user/kernel level) — free, but tracked.
    pub pte_inversion: bool,
    /// Flush L1D on VM entry (L1TF, hypervisor level).
    pub l1d_flush_vmentry: bool,
    /// Eager FPU save/restore on context switch (LazyFP).
    pub eager_fpu: bool,
    /// `lfence` after `swapgs` and hardened bounds checks (Spectre V1).
    /// True for every policy except [`V1Policy::Off`]; the policy below
    /// refines *how* bounds checks are hardened.
    pub spectre_v1_lfence: bool,
    /// The resolved Spectre-V1 hardening policy. [`V1Policy::Lfence`]
    /// (the default) is byte-identical to the paper's blanket
    /// behaviour; [`V1Policy::Targeted`] consults the `spec-taint`
    /// branch analysis and hardens only flagged branches.
    pub spectre_v1: V1Policy,
    /// Spectre V2 kernel strategy.
    pub spectre_v2: SpectreV2Mode,
    /// RSB stuffing on context switch (Spectre V2 / SpectreRSB).
    pub rsb_stuffing: bool,
    /// IBPB on context switch between processes (Spectre V2, user/user).
    pub ibpb_on_switch: bool,
    /// Conditional IBPB (the Linux default): the barrier is only issued
    /// when the outgoing or incoming task asked for protection
    /// (seccomp/prctl), not on every switch — issuing it unconditionally
    /// would dominate context-switch cost (Table 6's thousands of cycles).
    pub ibpb_conditional: bool,
    /// `verw` buffer clearing on kernel exit (MDS).
    pub mds_clear: bool,
    /// SSBD application policy.
    pub ssbd: SsbdMode,
    /// SMT left enabled (Table 1: "Disable SMT" is `!` — available but
    /// not the default, because the performance cost was judged too high).
    pub smt_enabled: bool,
}

impl MitigationConfig {
    /// Resolves the mitigation set for `model` under `params`, mirroring
    /// Linux's selection logic.
    pub fn resolve(model: &CpuModel, params: &BootParams) -> MitigationConfig {
        let off = params.mitigations_off;
        let v2 = if off || params.nospectre_v2 {
            SpectreV2Mode::Off
        } else if params.force_ibrs && model.spec.ibrs_supported {
            SpectreV2Mode::LegacyIbrs
        } else if model.spec.eibrs {
            SpectreV2Mode::Eibrs
        } else if model.vendor == Vendor::Amd {
            SpectreV2Mode::RetpolineAmd
        } else {
            SpectreV2Mode::RetpolineGeneric
        };
        MitigationConfig {
            pti: model.vuln.meltdown && !off && !params.nopti,
            pte_inversion: model.vuln.l1tf && !off && !params.l1tf_off,
            l1d_flush_vmentry: model.vuln.l1tf && !off && !params.l1tf_off,
            // Eager FPU is used on every CPU (Table 1: ✓ everywhere) —
            // it is usually *faster* than trapping (§3.1); only the
            // explicit `eagerfpu=off` toggle reverts it.
            eager_fpu: !params.lazy_fpu,
            spectre_v1_lfence: !off && !params.nospectre_v1 && params.spectre_v1 != V1Policy::Off,
            spectre_v1: if off || params.nospectre_v1 {
                V1Policy::Off
            } else {
                params.spectre_v1
            },
            spectre_v2: v2,
            rsb_stuffing: !off && !params.nospectre_v2,
            ibpb_on_switch: model.spec.ibpb_supported && !off && !params.nospectre_v2,
            ibpb_conditional: true,
            mds_clear: model.vuln.mds && model.spec.md_clear && !off && !params.mds_off,
            ssbd: if off { SsbdMode::ForceOff } else { params.ssbd },
            smt_enabled: model.spec.smt,
        }
    }

    /// Whether legacy IBRS writes `IA32_SPEC_CTRL` on every entry/exit.
    pub fn entry_writes_spec_ctrl(&self) -> bool {
        self.spectre_v2 == SpectreV2Mode::LegacyIbrs
    }

    /// Human-readable summary (the kernel's
    /// `/sys/devices/system/cpu/vulnerabilities` analogue).
    pub fn summary(&self) -> String {
        let v2 = match self.spectre_v2 {
            SpectreV2Mode::Off => "vulnerable",
            SpectreV2Mode::RetpolineGeneric => "retpoline (generic)",
            SpectreV2Mode::RetpolineAmd => "retpoline (amd/lfence)",
            SpectreV2Mode::Eibrs => "enhanced IBRS",
            SpectreV2Mode::LegacyIbrs => "IBRS (legacy)",
        };
        format!(
            "pti={} l1tf={} eager_fpu={} v1_lfence={} v2={} rsb={} ibpb={} mds_clear={} ssbd={:?} smt={}",
            self.pti,
            self.pte_inversion,
            self.eager_fpu,
            self.spectre_v1_lfence,
            v2,
            self.rsb_stuffing,
            self.ibpb_on_switch,
            self.mds_clear,
            self.ssbd,
            self.smt_enabled,
        )
    }
}

/// A nameable individual mitigation, for attribution (Figures 2/3 stack
/// these) and for Table 1 rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mitigation {
    /// Kernel page-table isolation.
    PageTableIsolation,
    /// PTE inversion (L1TF).
    PteInversion,
    /// L1D flush on VM entry (L1TF).
    FlushL1Cache,
    /// Eager FPU save/restore (LazyFP).
    AlwaysSaveFpu,
    /// JS-level index masking (Spectre V1).
    IndexMasking,
    /// `lfence` after `swapgs` (Spectre V1).
    LfenceAfterSwapgs,
    /// Generic retpolines.
    GenericRetpoline,
    /// AMD lfence retpolines.
    AmdRetpoline,
    /// Legacy IBRS.
    Ibrs,
    /// Enhanced IBRS.
    EnhancedIbrs,
    /// RSB stuffing on context switch.
    RsbStuffing,
    /// IBPB on context switch.
    Ibpb,
    /// Speculative Store Bypass Disable.
    Ssbd,
    /// `verw` buffer clearing (MDS).
    FlushCpuBuffers,
    /// Disable SMT (MDS, non-default).
    DisableSmt,
}

impl Mitigation {
    /// All mitigations in the paper's Table 1 row order.
    pub const TABLE1_ORDER: [Mitigation; 15] = [
        Mitigation::PageTableIsolation,
        Mitigation::PteInversion,
        Mitigation::FlushL1Cache,
        Mitigation::AlwaysSaveFpu,
        Mitigation::IndexMasking,
        Mitigation::LfenceAfterSwapgs,
        Mitigation::GenericRetpoline,
        Mitigation::AmdRetpoline,
        Mitigation::Ibrs,
        Mitigation::EnhancedIbrs,
        Mitigation::RsbStuffing,
        Mitigation::Ibpb,
        Mitigation::Ssbd,
        Mitigation::FlushCpuBuffers,
        Mitigation::DisableSmt,
    ];

    /// The attack each mitigation addresses (Table 1 left column).
    pub fn attack(self) -> &'static str {
        match self {
            Mitigation::PageTableIsolation => "Meltdown",
            Mitigation::PteInversion | Mitigation::FlushL1Cache => "L1TF",
            Mitigation::AlwaysSaveFpu => "LazyFP",
            Mitigation::IndexMasking | Mitigation::LfenceAfterSwapgs => "Spectre V1",
            Mitigation::GenericRetpoline
            | Mitigation::AmdRetpoline
            | Mitigation::Ibrs
            | Mitigation::EnhancedIbrs
            | Mitigation::RsbStuffing
            | Mitigation::Ibpb => "Spectre V2",
            Mitigation::Ssbd => "Spec. Store Bypass",
            Mitigation::FlushCpuBuffers | Mitigation::DisableSmt => "MDS",
        }
    }

    /// Display name as the paper prints it.
    pub fn name(self) -> &'static str {
        match self {
            Mitigation::PageTableIsolation => "Page Table Isolation",
            Mitigation::PteInversion => "PTE Inversion",
            Mitigation::FlushL1Cache => "Flush L1 Cache",
            Mitigation::AlwaysSaveFpu => "Always save FPU",
            Mitigation::IndexMasking => "Index Masking",
            Mitigation::LfenceAfterSwapgs => "lfence after swapgs",
            Mitigation::GenericRetpoline => "Generic Retpoline",
            Mitigation::AmdRetpoline => "AMD Retpoline",
            Mitigation::Ibrs => "IBRS",
            Mitigation::EnhancedIbrs => "Enhanced IBRS",
            Mitigation::RsbStuffing => "RSB Stuffing",
            Mitigation::Ibpb => "IBPB",
            Mitigation::Ssbd => "SSBD",
            Mitigation::FlushCpuBuffers => "Flush CPU Buffers",
            Mitigation::DisableSmt => "Disable SMT",
        }
    }

    /// Table 1 cell for this mitigation on `model`:
    /// `Some(true)` = ✓ (used by default), `Some(false)` = `!` (needed but
    /// not default), `None` = empty (not required).
    pub fn table1_cell(self, model: &CpuModel) -> Option<bool> {
        let cfg = MitigationConfig::resolve(model, &BootParams::default());
        match self {
            Mitigation::PageTableIsolation => cfg.pti.then_some(true),
            Mitigation::PteInversion => cfg.pte_inversion.then_some(true),
            Mitigation::FlushL1Cache => cfg.l1d_flush_vmentry.then_some(true),
            Mitigation::AlwaysSaveFpu => Some(true),
            Mitigation::IndexMasking => Some(true),
            Mitigation::LfenceAfterSwapgs => Some(true),
            Mitigation::GenericRetpoline => {
                (cfg.spectre_v2 == SpectreV2Mode::RetpolineGeneric).then_some(true)
            }
            Mitigation::AmdRetpoline => {
                (cfg.spectre_v2 == SpectreV2Mode::RetpolineAmd).then_some(true)
            }
            Mitigation::Ibrs => None,
            Mitigation::EnhancedIbrs => {
                (cfg.spectre_v2 == SpectreV2Mode::Eibrs).then_some(true)
            }
            Mitigation::RsbStuffing => Some(true),
            Mitigation::Ibpb => Some(true),
            // SSBD is needed on every part but never default-on: `!`.
            Mitigation::Ssbd => Some(false),
            Mitigation::FlushCpuBuffers => cfg.mds_clear.then_some(true),
            // SMT disabling: needed where MDS is unfixed, never default.
            Mitigation::DisableSmt => {
                (model.vuln.mds && model.spec.smt).then_some(false)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu_models::CpuId;

    fn cfg(id: CpuId) -> MitigationConfig {
        MitigationConfig::resolve(&id.model(), &BootParams::default())
    }

    #[test]
    fn pti_only_on_meltdown_parts() {
        assert!(cfg(CpuId::Broadwell).pti);
        assert!(cfg(CpuId::SkylakeClient).pti);
        for id in [
            CpuId::CascadeLake,
            CpuId::IceLakeClient,
            CpuId::IceLakeServer,
            CpuId::Zen,
            CpuId::Zen2,
            CpuId::Zen3,
        ] {
            assert!(!cfg(id).pti, "{id}");
        }
    }

    #[test]
    fn spectre_v2_strategy_per_table1() {
        assert_eq!(cfg(CpuId::Broadwell).spectre_v2, SpectreV2Mode::RetpolineGeneric);
        assert_eq!(cfg(CpuId::SkylakeClient).spectre_v2, SpectreV2Mode::RetpolineGeneric);
        assert_eq!(cfg(CpuId::CascadeLake).spectre_v2, SpectreV2Mode::Eibrs);
        assert_eq!(cfg(CpuId::IceLakeClient).spectre_v2, SpectreV2Mode::Eibrs);
        assert_eq!(cfg(CpuId::IceLakeServer).spectre_v2, SpectreV2Mode::Eibrs);
        assert_eq!(cfg(CpuId::Zen).spectre_v2, SpectreV2Mode::RetpolineAmd);
        assert_eq!(cfg(CpuId::Zen2).spectre_v2, SpectreV2Mode::RetpolineAmd);
        assert_eq!(cfg(CpuId::Zen3).spectre_v2, SpectreV2Mode::RetpolineAmd);
    }

    #[test]
    fn mds_clear_on_first_three_intel() {
        assert!(cfg(CpuId::Broadwell).mds_clear);
        assert!(cfg(CpuId::SkylakeClient).mds_clear);
        assert!(cfg(CpuId::CascadeLake).mds_clear);
        assert!(!cfg(CpuId::IceLakeClient).mds_clear);
        assert!(!cfg(CpuId::Zen).mds_clear);
    }

    #[test]
    fn master_switch_disables_everything() {
        let p = BootParams::parse("mitigations=off");
        let c = MitigationConfig::resolve(&CpuId::Broadwell.model(), &p);
        assert!(!c.pti && !c.mds_clear && !c.rsb_stuffing && !c.ibpb_on_switch);
        assert_eq!(c.spectre_v2, SpectreV2Mode::Off);
        assert_eq!(c.ssbd, SsbdMode::ForceOff);
        // Eager FPU stays: it is a performance win, not a cost.
        assert!(c.eager_fpu);
    }

    #[test]
    fn individual_toggles_are_independent() {
        let p = BootParams::parse("nopti");
        let c = MitigationConfig::resolve(&CpuId::Broadwell.model(), &p);
        assert!(!c.pti);
        assert!(c.mds_clear, "mds stays on when only PTI is disabled");
        assert_eq!(c.spectre_v2, SpectreV2Mode::RetpolineGeneric);
    }

    #[test]
    fn force_ibrs_respects_hardware_support() {
        let p = BootParams::parse("spectre_v2=ibrs");
        let c = MitigationConfig::resolve(&CpuId::SkylakeClient.model(), &p);
        assert_eq!(c.spectre_v2, SpectreV2Mode::LegacyIbrs);
        assert!(c.entry_writes_spec_ctrl());
        // Zen has no IBRS: falls back to its normal choice.
        let c = MitigationConfig::resolve(&CpuId::Zen.model(), &p);
        assert_eq!(c.spectre_v2, SpectreV2Mode::RetpolineAmd);
    }

    #[test]
    fn table1_matrix_matches_paper() {
        use Mitigation as M;
        // Expected cells: (mitigation, [8 cells in CpuId::ALL order]),
        // Some(true)=✓, Some(false)=!, None=empty.
        let y = Some(true);
        let bang = Some(false);
        let n: Option<bool> = None;
        let expected: &[(M, [Option<bool>; 8])] = &[
            (M::PageTableIsolation, [y, y, n, n, n, n, n, n]),
            (M::PteInversion, [y, y, n, n, n, n, n, n]),
            (M::FlushL1Cache, [y, y, n, n, n, n, n, n]),
            (M::AlwaysSaveFpu, [y; 8]),
            (M::IndexMasking, [y; 8]),
            (M::LfenceAfterSwapgs, [y; 8]),
            (M::GenericRetpoline, [y, y, n, n, n, n, n, n]),
            (M::AmdRetpoline, [n, n, n, n, n, y, y, y]),
            (M::Ibrs, [n; 8]),
            (M::EnhancedIbrs, [n, n, y, y, y, n, n, n]),
            (M::RsbStuffing, [y; 8]),
            (M::Ibpb, [y; 8]),
            (M::Ssbd, [bang; 8]),
            (M::FlushCpuBuffers, [y, y, y, n, n, n, n, n]),
            (M::DisableSmt, [bang, bang, bang, n, n, n, n, n]),
        ];
        for (mit, cells) in expected {
            for (id, want) in CpuId::ALL.iter().zip(cells) {
                let got = mit.table1_cell(&id.model());
                assert_eq!(got, *want, "{} on {id}", mit.name());
            }
        }
    }
}
