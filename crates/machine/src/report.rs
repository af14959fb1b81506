//! Speedup bookkeeping used by the experiment harness.

/// One (application, CFU set) performance measurement.
///
/// # Example
///
/// ```
/// use isax_machine::SpeedupReport;
///
/// let r = SpeedupReport::new("blowfish", "blowfish", 15.0, 10_000, 6_200);
/// assert!((r.speedup - 1.6129).abs() < 1e-3);
/// assert!(r.is_native());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupReport {
    /// Application that was compiled.
    pub app: String,
    /// Application whose CFUs were used ("cross compilation" when it
    /// differs from `app`).
    pub cfu_source: String,
    /// Area budget of the CFU set, in adders.
    pub budget: f64,
    /// Baseline cycle estimate.
    pub baseline_cycles: u64,
    /// Customized cycle estimate.
    pub custom_cycles: u64,
    /// `baseline / custom`.
    pub speedup: f64,
}

impl SpeedupReport {
    /// Builds a report, computing the speedup ratio.
    pub fn new(
        app: &str,
        cfu_source: &str,
        budget: f64,
        baseline_cycles: u64,
        custom_cycles: u64,
    ) -> Self {
        SpeedupReport {
            app: app.to_string(),
            cfu_source: cfu_source.to_string(),
            budget,
            baseline_cycles,
            custom_cycles,
            speedup: isax_compiler::speedup(baseline_cycles, custom_cycles),
        }
    }

    /// True when the application runs on its own CFUs.
    pub fn is_native(&self) -> bool {
        self.app == self.cfu_source
    }
}

impl std::fmt::Display for SpeedupReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} on {}-CFUs @ {:>4.1} adders: {:.3}x ({} -> {})",
            self.app,
            self.cfu_source,
            self.budget,
            self.speedup,
            self.baseline_cycles,
            self.custom_cycles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_custom_cycles_is_unity() {
        let r = SpeedupReport::new("a", "b", 1.0, 100, 0);
        assert_eq!(r.speedup, 1.0);
        assert!(!r.is_native());
    }

    #[test]
    fn display_contains_key_facts() {
        let r = SpeedupReport::new("sha", "rijndael", 15.0, 200, 150);
        let s = r.to_string();
        assert!(s.contains("sha"));
        assert!(s.contains("rijndael"));
        assert!(s.contains("1.333"));
    }
}
