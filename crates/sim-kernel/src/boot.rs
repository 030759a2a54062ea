//! Boot-time command line parameters.
//!
//! The paper's attribution methodology (§4.1) toggles mitigations through
//! Linux kernel boot parameters; this module accepts the same tokens so
//! the harness drives the simulated kernel exactly the way the authors
//! drove Linux: `mitigations=off`, `nopti`, `nospectre_v1`,
//! `nospectre_v2`, `mds=off`, `l1tf=off`, `spec_store_bypass_disable=…`,
//! plus a couple of toggles Linux exposes elsewhere (`eagerfpu=off`),
//! and the beyond-the-paper `spectre_v1=off|lfence|mask|targeted` policy
//! selector (see [`spec_taint::V1Policy`]).

use spec_taint::V1Policy;

/// How Speculative Store Bypass Disable is applied (Linux
/// `spec_store_bypass_disable=`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SsbdMode {
    /// Enabled for processes that request it via `prctl` (and, before
    /// Linux 5.16, implicitly for seccomp processes). This is the kernel
    /// default the paper measured (§4.3).
    SeccompAndPrctl,
    /// Enabled only via explicit `prctl` — the Linux 5.16 change the
    /// paper's §7 discusses (seccomp processes no longer opted in).
    PrctlOnly,
    /// Force-enabled for every process (`=on`).
    ForceOn,
    /// Fully disabled (`=off`).
    ForceOff,
}

/// Parsed boot parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BootParams {
    /// `mitigations=off`: master switch disabling everything.
    pub mitigations_off: bool,
    /// `nopti`: disable kernel page-table isolation.
    pub nopti: bool,
    /// `nospectre_v1`: drop lfence/swapgs hardening.
    pub nospectre_v1: bool,
    /// `spectre_v1=<policy>`: how bounds checks are hardened when the
    /// V1 mitigation is on. `lfence` (the default) reproduces the
    /// paper's blanket behaviour byte for byte; `targeted` consults the
    /// `spec-taint` branch-attackability analysis and hardens only
    /// flagged branches. `spectre_v1=off` is equivalent to
    /// `nospectre_v1`.
    pub spectre_v1: V1Policy,
    /// `nospectre_v2`: drop retpolines/eIBRS/IBPB/RSB stuffing.
    pub nospectre_v2: bool,
    /// `mds=off`: drop verw buffer clearing.
    pub mds_off: bool,
    /// `l1tf=off`: drop PTE inversion and VM-entry L1D flushes.
    pub l1tf_off: bool,
    /// SSBD application mode.
    pub ssbd: SsbdMode,
    /// `eagerfpu=off`: revert to lazy FPU switching (not a real Linux
    /// option any more; exposed for attribution of the LazyFP mitigation).
    pub lazy_fpu: bool,
    /// `spectre_v2=ibrs`: force legacy IBRS instead of retpolines (used by
    /// the Table 5 / Table 10 experiments).
    pub force_ibrs: bool,
}

impl Default for BootParams {
    fn default() -> BootParams {
        BootParams {
            mitigations_off: false,
            nopti: false,
            nospectre_v1: false,
            spectre_v1: V1Policy::Lfence,
            nospectre_v2: false,
            mds_off: false,
            l1tf_off: false,
            ssbd: SsbdMode::SeccompAndPrctl,
            lazy_fpu: false,
            force_ibrs: false,
        }
    }
}

impl BootParams {
    /// Parses a boot command line. Unknown tokens are ignored, as Linux
    /// does.
    pub fn parse(cmdline: &str) -> BootParams {
        let mut p = BootParams::default();
        for tok in cmdline.split_whitespace() {
            match tok {
                "mitigations=off" => p.mitigations_off = true,
                "mitigations=auto" => p.mitigations_off = false,
                "nopti" | "pti=off" => p.nopti = true,
                "pti=on" => p.nopti = false,
                "nospectre_v1" => p.nospectre_v1 = true,
                _ if tok.starts_with("spectre_v1=") => {
                    // Unknown policy values are ignored like any other
                    // malformed token, but V1Policy::parse's error (and
                    // the CLI help) name the accepted set from
                    // V1Policy::ALL so they can never drift.
                    if let Ok(policy) = V1Policy::parse(&tok["spectre_v1=".len()..]) {
                        p.spectre_v1 = policy;
                    }
                }
                "nospectre_v2" | "spectre_v2=off" => p.nospectre_v2 = true,
                "spectre_v2=ibrs" => p.force_ibrs = true,
                "mds=off" => p.mds_off = true,
                "l1tf=off" => p.l1tf_off = true,
                "spec_store_bypass_disable=off" => p.ssbd = SsbdMode::ForceOff,
                "spec_store_bypass_disable=on" => p.ssbd = SsbdMode::ForceOn,
                "spec_store_bypass_disable=prctl" => p.ssbd = SsbdMode::PrctlOnly,
                "spec_store_bypass_disable=seccomp" => p.ssbd = SsbdMode::SeccompAndPrctl,
                "eagerfpu=off" => p.lazy_fpu = true,
                _ => {}
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_mitigated() {
        let p = BootParams::default();
        assert!(!p.mitigations_off && !p.nopti && !p.nospectre_v2 && !p.mds_off);
        assert_eq!(p.ssbd, SsbdMode::SeccompAndPrctl);
    }

    #[test]
    fn parse_individual_toggles() {
        let p = BootParams::parse("nopti mds=off nospectre_v2");
        assert!(p.nopti && p.mds_off && p.nospectre_v2);
        assert!(!p.nospectre_v1);
    }

    #[test]
    fn parse_master_switch() {
        assert!(BootParams::parse("quiet mitigations=off splash").mitigations_off);
    }

    #[test]
    fn parse_ssbd_modes() {
        assert_eq!(BootParams::parse("spec_store_bypass_disable=on").ssbd, SsbdMode::ForceOn);
        assert_eq!(BootParams::parse("spec_store_bypass_disable=off").ssbd, SsbdMode::ForceOff);
        assert_eq!(BootParams::parse("spec_store_bypass_disable=prctl").ssbd, SsbdMode::PrctlOnly);
    }

    #[test]
    fn unknown_tokens_ignored() {
        let p = BootParams::parse("console=ttyS0 root=/dev/sda1 nopti");
        assert!(p.nopti);
    }

    #[test]
    fn parse_spectre_v1_policies() {
        // Every name in V1Policy::ALL round-trips through the cmdline.
        for policy in V1Policy::ALL {
            let p = BootParams::parse(&format!("spectre_v1={policy}"));
            assert_eq!(p.spectre_v1, policy);
        }
        // The default is the paper's blanket lfence behaviour.
        assert_eq!(BootParams::default().spectre_v1, V1Policy::Lfence);
        // Malformed values are ignored like any unknown token.
        assert_eq!(BootParams::parse("spectre_v1=bogus").spectre_v1, V1Policy::Lfence);
    }
}
