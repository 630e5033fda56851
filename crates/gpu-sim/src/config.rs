//! Machine descriptions for the simulated platform.

use std::fmt;

/// A rejected device configuration (see [`DeviceConfigBuilder::build`]).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A field failed validation.
    InvalidField {
        /// Which field was rejected.
        field: &'static str,
        /// Why it was rejected.
        reason: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::InvalidField { field, reason } => {
                write!(f, "invalid device config: {field} {reason}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// PCI-Express link model: a fixed per-transfer latency plus a bandwidth
/// term.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PcieConfig {
    /// Sustained bandwidth in gigabytes per second.
    pub bandwidth_gb_s: f64,
    /// Per-transfer setup latency in microseconds (driver + DMA setup).
    pub latency_us: f64,
}

impl PcieConfig {
    /// Simulated duration of transferring `bytes` bytes, in nanoseconds.
    #[inline]
    pub fn transfer_ns(&self, bytes: usize) -> f64 {
        self.latency_us * 1_000.0 + bytes as f64 / self.bandwidth_gb_s
    }
}

/// Description of the simulated GPU and its host link.
///
/// Construct via a preset ([`DeviceConfig::tesla_c1060`] etc.) or the
/// fluent [`DeviceConfig::builder`]; the struct is `#[non_exhaustive]` so
/// new cost knobs can be added without breaking downstream code.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub struct DeviceConfig {
    /// Human-readable device name (appears in reports).
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Scalar cores per SM.
    pub cores_per_sm: usize,
    /// Threads per warp.
    pub warp_size: usize,
    /// Core clock in GHz (cycles per nanosecond).
    pub core_clock_ghz: f64,
    /// Simulated cycles charged per arithmetic/logic instruction.
    pub alu_cycles: u64,
    /// Simulated cycles charged per (amortized, coalesced) global memory
    /// access.
    pub mem_cycles: u64,
    /// The host link.
    pub pcie: PcieConfig,
}

impl DeviceConfig {
    /// The paper's GPU: NVIDIA Tesla C1060 — 30 SMs × 8 SPs (240 cores),
    /// warps of 32 on four-stage quad-pumped pipelines, 1.296 GHz, PCIe 2.0
    /// ×16 at 8 GB/s (§II).
    pub fn tesla_c1060() -> Self {
        Self {
            name: "Tesla C1060 (simulated)",
            num_sms: 30,
            cores_per_sm: 8,
            warp_size: 32,
            core_clock_ghz: 1.296,
            alu_cycles: 1,
            mem_cycles: 4,
            pcie: PcieConfig {
                bandwidth_gb_s: 8.0,
                latency_us: 10.0,
            },
        }
    }

    /// The next GPU generation (NVIDIA Tesla C2050, "Fermi"): 14 SMs × 32
    /// cores, 1.15 GHz, PCIe 2.0. Used in sensitivity checks: the paper's
    /// conclusions should not hinge on one device's shape.
    pub fn fermi_c2050() -> Self {
        Self {
            name: "Tesla C2050 (simulated)",
            num_sms: 14,
            cores_per_sm: 32,
            warp_size: 32,
            core_clock_ghz: 1.15,
            alu_cycles: 1,
            mem_cycles: 3,
            pcie: PcieConfig {
                bandwidth_gb_s: 8.0,
                latency_us: 10.0,
            },
        }
    }

    /// A small device for fast, deterministic unit tests: 2 SMs × 4 cores,
    /// warps of 8.
    pub fn test_tiny() -> Self {
        Self {
            name: "tiny test device",
            num_sms: 2,
            cores_per_sm: 4,
            warp_size: 8,
            core_clock_ghz: 1.0,
            alu_cycles: 1,
            mem_cycles: 4,
            pcie: PcieConfig {
                bandwidth_gb_s: 1.0,
                latency_us: 1.0,
            },
        }
    }

    /// Cycles a warp occupies an SM's issue logic per charged cycle of
    /// per-lane work: `warp_size / cores_per_sm` (4 on the C1060 — the
    /// "four stage pipelines" of §II).
    #[inline]
    pub fn issue_factor(&self) -> u64 {
        (self.warp_size / self.cores_per_sm).max(1) as u64
    }

    /// Converts simulated cycles to nanoseconds at the core clock.
    #[inline]
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 / self.core_clock_ghz
    }

    /// A fluent, validating builder seeded from the paper's Tesla C1060
    /// preset; override only the fields an experiment varies.
    pub fn builder() -> DeviceConfigBuilder {
        DeviceConfigBuilder {
            config: Self::tesla_c1060(),
        }
    }
}

/// Fluent builder for [`DeviceConfig`] (see [`DeviceConfig::builder`]).
///
/// ```
/// use hprng_gpu_sim::DeviceConfig;
/// let config = DeviceConfig::builder()
///     .name("wide device")
///     .num_sms(60)
///     .core_clock_ghz(1.5)
///     .build()
///     .unwrap();
/// assert_eq!(config.num_sms, 60);
/// ```
#[derive(Clone, Debug)]
pub struct DeviceConfigBuilder {
    config: DeviceConfig,
}

impl DeviceConfigBuilder {
    /// Sets the human-readable device name.
    pub fn name(mut self, name: &'static str) -> Self {
        self.config.name = name;
        self
    }

    /// Sets the number of streaming multiprocessors.
    pub fn num_sms(mut self, num_sms: usize) -> Self {
        self.config.num_sms = num_sms;
        self
    }

    /// Sets the scalar cores per SM.
    pub fn cores_per_sm(mut self, cores_per_sm: usize) -> Self {
        self.config.cores_per_sm = cores_per_sm;
        self
    }

    /// Sets the threads per warp.
    pub fn warp_size(mut self, warp_size: usize) -> Self {
        self.config.warp_size = warp_size;
        self
    }

    /// Sets the core clock in GHz.
    pub fn core_clock_ghz(mut self, ghz: f64) -> Self {
        self.config.core_clock_ghz = ghz;
        self
    }

    /// Sets the cycles charged per ALU instruction.
    pub fn alu_cycles(mut self, cycles: u64) -> Self {
        self.config.alu_cycles = cycles;
        self
    }

    /// Sets the cycles charged per amortized global-memory access.
    pub fn mem_cycles(mut self, cycles: u64) -> Self {
        self.config.mem_cycles = cycles;
        self
    }

    /// Sets the host-link model.
    pub fn pcie(mut self, pcie: PcieConfig) -> Self {
        self.config.pcie = pcie;
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<DeviceConfig, ConfigError> {
        let c = &self.config;
        let invalid = |field: &'static str, reason: &'static str| {
            Err(ConfigError::InvalidField { field, reason })
        };
        if c.num_sms == 0 {
            return invalid("num_sms", "must be positive");
        }
        if c.cores_per_sm == 0 {
            return invalid("cores_per_sm", "must be positive");
        }
        if c.warp_size == 0 {
            return invalid("warp_size", "must be positive");
        }
        if !(c.core_clock_ghz > 0.0 && c.core_clock_ghz.is_finite()) {
            return invalid("core_clock_ghz", "must be positive and finite");
        }
        if !(c.pcie.bandwidth_gb_s > 0.0 && c.pcie.bandwidth_gb_s.is_finite()) {
            return invalid("pcie.bandwidth_gb_s", "must be positive and finite");
        }
        if !(c.pcie.latency_us >= 0.0 && c.pcie.latency_us.is_finite()) {
            return invalid("pcie.latency_us", "must be non-negative and finite");
        }
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcie_transfer_time_has_latency_floor() {
        let p = PcieConfig {
            bandwidth_gb_s: 8.0,
            latency_us: 10.0,
        };
        // Zero bytes still costs the setup latency.
        assert_eq!(p.transfer_ns(0), 10_000.0);
        // 8 GB at 8 GB/s = 1 s.
        let one_gb = 1usize << 30;
        let t = p.transfer_ns(8 * one_gb);
        assert!((t - (10_000.0 + 8.0 * one_gb as f64 / 8.0)).abs() < 1e-6);
    }

    #[test]
    fn c1060_preset_matches_paper() {
        let c = DeviceConfig::tesla_c1060();
        assert_eq!(c.num_sms, 30);
        assert_eq!(c.num_sms * c.cores_per_sm, 240);
        assert_eq!(c.warp_size, 32);
        assert_eq!(c.issue_factor(), 4);
        assert_eq!(c.pcie.bandwidth_gb_s, 8.0);
    }

    #[test]
    fn fermi_preset_has_unit_issue_factor() {
        let c = DeviceConfig::fermi_c2050();
        assert_eq!(c.num_sms * c.cores_per_sm, 448);
        assert_eq!(c.issue_factor(), 1); // 32 cores per SM issue a full warp
    }

    #[test]
    fn builder_overrides_and_validates() {
        let config = DeviceConfig::builder()
            .name("custom")
            .num_sms(4)
            .cores_per_sm(16)
            .warp_size(32)
            .core_clock_ghz(2.0)
            .pcie(PcieConfig {
                bandwidth_gb_s: 16.0,
                latency_us: 5.0,
            })
            .build()
            .unwrap();
        assert_eq!(config.name, "custom");
        assert_eq!(config.num_sms, 4);
        assert_eq!(config.issue_factor(), 2);
        // Unset fields keep the C1060 preset values.
        assert_eq!(config.alu_cycles, DeviceConfig::tesla_c1060().alu_cycles);

        let err = DeviceConfig::builder().num_sms(0).build().unwrap_err();
        assert!(matches!(
            err,
            ConfigError::InvalidField {
                field: "num_sms",
                ..
            }
        ));
        assert!(DeviceConfig::builder().core_clock_ghz(0.0).build().is_err());
        assert!(DeviceConfig::builder()
            .core_clock_ghz(f64::NAN)
            .build()
            .is_err());
    }

    #[test]
    fn cycles_to_ns_uses_clock() {
        let c = DeviceConfig::test_tiny();
        assert_eq!(c.cycles_to_ns(1000), 1000.0);
        let c2 = DeviceConfig::tesla_c1060();
        assert!((c2.cycles_to_ns(1296) - 1000.0).abs() < 1.0);
    }
}
