//! External constraints and tuning knobs for exploration.

/// Per-category guide-function weights. The paper: "each of the guide
/// function categories is allotted 10 points of weight ... Many
/// experiments have been performed varying the weights of each of these
/// factors and they point to the general conclusion that evenly balancing
/// the factors yields the best candidates" — the `guide_ablation` bench
/// regenerates that experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuideWeights {
    /// Points for on-critical-path directions.
    pub criticality: f64,
    /// Points for latency-preserving directions.
    pub latency: f64,
    /// Points for area-preserving directions.
    pub area: f64,
    /// Points for port-preserving directions.
    pub io: f64,
}

impl Default for GuideWeights {
    fn default() -> Self {
        GuideWeights {
            criticality: 10.0,
            latency: 10.0,
            area: 10.0,
            io: 10.0,
        }
    }
}

impl GuideWeights {
    /// Total points available.
    pub fn total(&self) -> f64 {
        self.criticality + self.latency + self.area + self.io
    }
}

/// Externally defined constraints plus guide-function tuning.
///
/// Defaults mirror the paper's evaluation setup: five input and three
/// output ports, ten points per guide category, and the half-of-total
/// acceptance threshold.
///
/// # Example
///
/// ```
/// use isax_explore::ExploreConfig;
///
/// let cfg = ExploreConfig::default();
/// assert_eq!(cfg.max_inputs, 5);
/// assert_eq!(cfg.max_outputs, 3);
/// assert_eq!(cfg.threshold, 20.0);
///
/// // The §3.2 validation experiment uses tighter constraints:
/// let tight = ExploreConfig {
///     max_inputs: 3,
///     max_outputs: 2,
///     max_area: Some(5.0),
///     ..ExploreConfig::default()
/// };
/// assert_eq!(tight.max_area, Some(5.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreConfig {
    /// Maximum register-file read ports a CFU may use (paper: 5).
    pub max_inputs: usize,
    /// Maximum register-file write ports a CFU may use (paper: 3).
    pub max_outputs: usize,
    /// Optional per-CFU area cap in adder units ("the maximum die area
    /// allowed for any custom function unit"). `None` leaves size to the
    /// selection budget — used by the limit study.
    pub max_area: Option<f64>,
    /// Safety cap on candidate node count.
    pub max_nodes: usize,
    /// Points allotted to each guide category (paper: 10 apiece).
    pub weights: GuideWeights,
    /// Minimum total score for a direction to be explored (paper: half of
    /// the total desirability points, i.e. 20 of 40).
    pub threshold: f64,
    /// Adaptive fanout: once a candidate reaches this size, only the best
    /// [`ExploreConfig::taper_fanout`] directions are followed. This is
    /// the paper's "higher fanout ... at the initial levels of the search
    /// and then more tightly constrain the number of growth directions as
    /// the candidates increase in size" — the mechanism that keeps very
    /// large (e.g. unrolled) blocks tractable. `Some(1)` caps every growth
    /// step; `None` disables tapering.
    pub taper_size: Option<usize>,
    /// Directions followed per step once the taper engages.
    pub taper_fanout: usize,
    /// Beam-ordered growth: keep at most this many unexamined candidates
    /// per frontier level, expanding the best-scored ones first, so a
    /// bounded examination budget is spent on the most promising shapes.
    /// `None` (the default) is the exhaustive depth-first walk; a beam of
    /// `usize::MAX` examines the same candidate set as `None` (proven by
    /// the equivalence proptests), just in breadth-first order.
    pub beam_width: Option<usize>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_inputs: 5,
            max_outputs: 3,
            max_area: None,
            max_nodes: 48,
            weights: GuideWeights::default(),
            threshold: 20.0,
            taper_size: None,
            taper_fanout: 2,
            beam_width: None,
        }
    }
}

impl ExploreConfig {
    /// The unconstrained configuration of the paper's limit study:
    /// "infinite register file ports, an infinite area budget". A fanout
    /// taper keeps the unbounded space tractable, exactly as the paper's
    /// adaptive-fanout discussion prescribes.
    pub fn unconstrained() -> Self {
        ExploreConfig {
            max_inputs: usize::MAX,
            max_outputs: usize::MAX,
            max_area: None,
            max_nodes: 128,
            // Full enumeration up to four operations, then hill-climb the
            // single best direction: wide reconvergent blocks (the DCTs)
            // otherwise branch exponentially even under a small fanout.
            taper_size: Some(4),
            taper_fanout: 1,
            // Keep the guide; the limit is on constraints, not on search
            // intelligence.
            ..ExploreConfig::default()
        }
    }

    /// Total desirability points available (four categories).
    pub fn total_points(&self) -> f64 {
        self.weights.total()
    }

    /// Replaces the guide weights, rescaling the acceptance threshold to
    /// stay at the same fraction of the total.
    pub fn with_weights(mut self, weights: GuideWeights) -> Self {
        let fraction = self.threshold / self.total_points();
        self.weights = weights;
        self.threshold = fraction * self.weights.total();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ExploreConfig::default();
        assert_eq!(c.total_points(), 40.0);
        assert_eq!(c.threshold, c.total_points() / 2.0);
        assert!(c.taper_size.is_none());
    }

    #[test]
    fn unconstrained_removes_port_limits() {
        let c = ExploreConfig::unconstrained();
        assert_eq!(c.max_inputs, usize::MAX);
        assert_eq!(c.max_outputs, usize::MAX);
        assert!(c.max_area.is_none());
        assert!(c.max_nodes > ExploreConfig::default().max_nodes);
    }
}
