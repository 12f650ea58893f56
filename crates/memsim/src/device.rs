//! Edge-device profiles (the paper's Table 1).

/// Static description of a target platform.
///
/// The first six fields come straight from Table 1 of the paper. The last
/// three are the calibration constants of the simulation:
///
/// - `compute_efficiency` — the fraction of peak FLOPs real CNN kernels
///   sustain; fitted once per device against the paper's Table 3 BP
///   throughput column (Pi 6 img/s, Nano 213 img/s, NX 1278 img/s,
///   Orin 3706 img/s for VGG-16/CIFAR-10).
/// - `per_batch_overhead_s` — fixed per-batch cost (host-side loading,
///   preprocessing, launch latency). Fitted so that VGG-19 training at
///   batch 4 is ≈ 9× slower than at batch 256 (Figure 1, bottom right).
/// - `storage_bw_bytes_s` — sequential storage bandwidth used by the
///   activation cache (SD/NVMe class).
///
/// # Examples
///
/// ```
/// use nf_memsim::DeviceProfile;
///
/// let orin = DeviceProfile::agx_orin();
/// assert_eq!(orin.gpu_cores, 1536);
/// assert!(orin.effective_flops() < orin.peak_tflops * 1e12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable platform name.
    pub name: String,
    /// CPU model string.
    pub cpu: String,
    /// CPU core count.
    pub cpu_cores: usize,
    /// Device memory in bytes.
    pub memory_bytes: u64,
    /// GPU core count (0 = CPU-only platform).
    pub gpu_cores: usize,
    /// Peak throughput in TFLOPs (fp32), from Table 1.
    pub peak_tflops: f64,
    /// Thermal design power in watts.
    pub tdp_w: f64,
    /// Fraction of peak the device sustains on CNN kernels.
    pub compute_efficiency: f64,
    /// Fixed overhead per training batch, in seconds.
    pub per_batch_overhead_s: f64,
    /// Storage bandwidth in bytes/second (activation cache I/O).
    pub storage_bw_bytes_s: f64,
}

impl DeviceProfile {
    /// Raspberry Pi 4B (CPU only; used for inference throughput).
    pub fn pi4b() -> Self {
        DeviceProfile {
            name: "Raspberry Pi 4B".into(),
            cpu: "ARM Cortex-A72".into(),
            cpu_cores: 4,
            memory_bytes: 4 << 30,
            gpu_cores: 0,
            peak_tflops: 0.00969,
            tdp_w: 8.0,
            compute_efficiency: 0.41,
            per_batch_overhead_s: 0.30,
            storage_bw_bytes_s: 90e6,
        }
    }

    /// NVIDIA Jetson Nano.
    pub fn jetson_nano() -> Self {
        DeviceProfile {
            name: "Nvidia Nano".into(),
            cpu: "ARM Cortex-A57".into(),
            cpu_cores: 4,
            memory_bytes: 4 << 30,
            gpu_cores: 128,
            peak_tflops: 0.472,
            tdp_w: 5.0,
            compute_efficiency: 0.30,
            per_batch_overhead_s: 0.15,
            storage_bw_bytes_s: 90e6,
        }
    }

    /// NVIDIA Jetson Xavier NX.
    pub fn xavier_nx() -> Self {
        DeviceProfile {
            name: "Nvidia Xavier NX".into(),
            cpu: "ARM Carmel".into(),
            cpu_cores: 6,
            memory_bytes: 8 << 30,
            gpu_cores: 384,
            peak_tflops: 1.33,
            tdp_w: 15.0,
            compute_efficiency: 0.63,
            per_batch_overhead_s: 0.08,
            storage_bw_bytes_s: 1.8e9,
        }
    }

    /// NVIDIA Jetson AGX Orin — the platform of Figures 11 and 12.
    pub fn agx_orin() -> Self {
        DeviceProfile {
            name: "Nvidia AGX Orin".into(),
            cpu: "ARM Carmel".into(),
            cpu_cores: 12,
            memory_bytes: 64 << 30,
            gpu_cores: 1536,
            peak_tflops: 4.76,
            tdp_w: 50.0,
            compute_efficiency: 0.51,
            per_batch_overhead_s: 0.05,
            storage_bw_bytes_s: 2.5e9,
        }
    }

    /// All four platforms of Table 1, in the paper's order.
    pub fn all() -> Vec<DeviceProfile> {
        vec![
            Self::pi4b(),
            Self::jetson_nano(),
            Self::xavier_nx(),
            Self::agx_orin(),
        ]
    }

    /// Slugs accepted by [`DeviceProfile::by_name`], in Table 1 order.
    pub fn preset_names() -> [&'static str; 4] {
        ["pi4b", "jetson-nano", "xavier-nx", "agx-orin"]
    }

    /// Looks up a Table 1 device by slug (`pi4b`, `jetson-nano`,
    /// `xavier-nx`, `agx-orin`; underscores also accepted). `None` for
    /// unknown slugs.
    ///
    /// # Examples
    ///
    /// ```
    /// use nf_memsim::DeviceProfile;
    ///
    /// let orin = DeviceProfile::by_name("agx-orin").unwrap();
    /// assert_eq!(orin, DeviceProfile::agx_orin());
    /// assert!(DeviceProfile::by_name("h100").is_none());
    /// ```
    pub fn by_name(name: &str) -> Option<DeviceProfile> {
        match name {
            "pi4b" => Some(Self::pi4b()),
            "jetson-nano" | "jetson_nano" | "nano" => Some(Self::jetson_nano()),
            "xavier-nx" | "xavier_nx" => Some(Self::xavier_nx()),
            "agx-orin" | "agx_orin" | "orin" => Some(Self::agx_orin()),
            _ => None,
        }
    }

    /// Sustained FLOPs/second on CNN kernels.
    pub fn effective_flops(&self) -> f64 {
        self.peak_tflops * 1e12 * self.compute_efficiency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_constants() {
        let all = DeviceProfile::all();
        assert_eq!(all.len(), 4);
        let nano = &all[1];
        assert_eq!(nano.gpu_cores, 128);
        assert_eq!(nano.peak_tflops, 0.472);
        assert_eq!(nano.tdp_w, 5.0);
        let orin = &all[3];
        assert_eq!(orin.cpu_cores, 12);
        assert_eq!(orin.memory_bytes, 64 << 30);
    }

    #[test]
    fn device_ordering_by_throughput() {
        // Pi < Nano < NX < Orin, as in Table 1.
        let eff: Vec<f64> = DeviceProfile::all()
            .iter()
            .map(|d| d.effective_flops())
            .collect();
        assert!(eff.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn profiles_clone_and_compare() {
        let d = DeviceProfile::xavier_nx();
        let cloned = d.clone();
        assert_eq!(d, cloned);
        assert_ne!(d, DeviceProfile::pi4b());
    }
}
