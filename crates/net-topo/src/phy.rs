//! Empirical PHY model: link distance → one-way reception probability.
//!
//! The paper's Drift testbed uses a PHY model derived from the real-world
//! urban-mesh traces of Camp et al. (MobiSys'06) that "empirically maps link
//! distance to the reception probability" (Sec. 5). We do not have those
//! traces, so this module substitutes a parametric curve with the same
//! qualitative shape — a high plateau near the transmitter followed by a
//! smooth fall-off — calibrated to reproduce the paper's two operating
//! points on density-6 random deployments:
//!
//! * **lossy** (default power): average link reception probability ≈ 0.58,
//!   with most links of intermediate quality;
//! * **high quality** (increased transmission power): average ≈ 0.91.
//!
//! Following Sec. 3.2, the *transmission range* is the distance at which the
//! reception probability falls below a small threshold (0.2), and the
//! interference range is identical to it. Beyond the range the probability
//! is truncated to zero.
//!
//! Real measurements additionally show large variance of reception
//! probability at a fixed distance (shadowing); the model reproduces it
//! with a per-link log-normal factor on the effective distance
//! ([`Phy::reception_prob_shadowed`]), so that some nearby links are surprisingly
//! bad and some long links surprisingly usable — the raw material of
//! opportunistic routing.

use serde::{Deserialize, Serialize};

use crate::TopoError;

/// Reception probability threshold that defines the transmission range
/// (Sec. 5: "defined as the distance where reception probability is 0.2").
pub const RANGE_THRESHOLD: f64 = 0.2;

/// Residual reception probability of an in-range link whose shadowing draw
/// pushed it below the threshold (see [`Phy::reception_prob_shadowed`]).
pub const SHADOWED_FLOOR: f64 = 0.08;

/// Opportunistic reception extends to this multiple of the nominal range:
/// beyond the range the probability decays from [`RANGE_THRESHOLD`] to zero
/// (the paper defines the *range* as where p falls below the threshold —
/// reception does not stop there, only interference accounting does).
pub const OPPORTUNISTIC_CUTOFF: f64 = 2.0;

/// Parametric distance → reception-probability model.
///
/// # Examples
///
/// ```
/// use omnc_net_topo::phy::Phy;
///
/// let phy = Phy::paper_lossy();
/// assert!(phy.reception_prob(0.0) > 0.9);                 // near field
/// assert!((phy.reception_prob(phy.range()) - 0.2).abs() < 1e-9);
/// // Beyond the range, opportunistic reception decays to zero at 2R.
/// assert!(phy.reception_prob(phy.range() * 1.2) < 0.2);
/// assert_eq!(phy.reception_prob(phy.range() * 2.1), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phy {
    nominal_range: f64,
    p_max: f64,
    plateau_frac: f64,
    power_gain: f64,
    shadowing_sigma: f64,
    opportunistic_cutoff: f64,
}

impl Phy {
    /// The lossy operating point of the paper's evaluation (Fig. 2 left):
    /// intermediate link qualities, average reception probability ≈ 0.58.
    pub fn paper_lossy() -> Self {
        Phy {
            nominal_range: 100.0,
            p_max: 0.94,
            plateau_frac: 0.42,
            power_gain: 1.0,
            shadowing_sigma: 0.35,
            opportunistic_cutoff: OPPORTUNISTIC_CUTOFF,
        }
    }

    /// The high-link-quality operating point (Fig. 2 right): every node's
    /// transmission power increased so the average reception probability on
    /// the *same* links rises to ≈ 0.91.
    pub fn paper_high_quality() -> Self {
        Phy::paper_lossy().with_power_gain(2.0)
    }

    /// Builds a custom model.
    ///
    /// `nominal_range` is the distance where the probability crosses
    /// [`RANGE_THRESHOLD`] at unit power gain; `p_max` is the plateau
    /// probability near the transmitter; `plateau_frac` the fraction of the
    /// nominal range covered by the plateau.
    ///
    /// # Errors
    ///
    /// Returns [`TopoError::InvalidParameter`] for non-finite or
    /// out-of-range values (`p_max` must lie in `(RANGE_THRESHOLD, 1]`,
    /// `plateau_frac` in `[0, 1)`).
    pub fn new(nominal_range: f64, p_max: f64, plateau_frac: f64) -> Result<Self, TopoError> {
        if !(nominal_range.is_finite() && nominal_range > 0.0) {
            return Err(TopoError::InvalidParameter {
                name: "nominal_range",
                value: nominal_range,
            });
        }
        if !(p_max.is_finite() && p_max > RANGE_THRESHOLD && p_max <= 1.0) {
            return Err(TopoError::InvalidParameter {
                name: "p_max",
                value: p_max,
            });
        }
        if !(plateau_frac.is_finite() && (0.0..1.0).contains(&plateau_frac)) {
            return Err(TopoError::InvalidParameter {
                name: "plateau_frac",
                value: plateau_frac,
            });
        }
        Ok(Phy {
            nominal_range,
            p_max,
            plateau_frac,
            power_gain: 1.0,
            shadowing_sigma: 0.0,
            opportunistic_cutoff: OPPORTUNISTIC_CUTOFF,
        })
    }

    /// Returns the same model with transmission power scaled so that all
    /// distances are effectively divided by `gain` (> 1 boosts quality).
    ///
    /// The *range* (and hence the neighbor/interference sets) is kept at the
    /// nominal value: the paper's high-power experiment raises link
    /// qualities on the same topology rather than adding longer links.
    #[must_use]
    pub fn with_power_gain(mut self, gain: f64) -> Self {
        assert!(
            gain.is_finite() && gain > 0.0,
            "power gain must be positive"
        );
        self.power_gain = gain;
        self
    }

    /// The transmission range (== interference range): the distance at which
    /// reception probability crosses [`RANGE_THRESHOLD`] at unit gain.
    pub fn range(&self) -> f64 {
        self.nominal_range
    }

    /// The farthest distance at which any link can form: the
    /// opportunistic cutoff times the nominal range. Beyond it
    /// [`Phy::reception_prob_shadowed`] is zero whatever the shadowing
    /// draw, so a link build need not look at pairs farther apart.
    pub fn reach(&self) -> f64 {
        self.opportunistic_cutoff * self.nominal_range
    }

    /// The shadowing sigma of this model.
    pub fn shadowing_sigma(&self) -> f64 {
        self.shadowing_sigma
    }

    /// Returns the same model with the opportunistic-reception cutoff set to
    /// `multiple` × range. `1.0` truncates reception at the range (the
    /// strictest reading of the paper's threshold definition); the default
    /// [`OPPORTUNISTIC_CUTOFF`] lets low-probability reception continue to
    /// twice the range, as measured deployments do.
    ///
    /// # Panics
    ///
    /// Panics if `multiple < 1.0` or is not finite.
    #[must_use]
    pub fn with_opportunistic_cutoff(mut self, multiple: f64) -> Self {
        assert!(
            multiple.is_finite() && multiple >= 1.0,
            "cutoff must be >= 1 range"
        );
        self.opportunistic_cutoff = multiple;
        self
    }

    /// One-way reception probability of a link of length `distance`.
    ///
    /// Zero beyond [`Phy::range`]; within range the curve is a plateau at
    /// `p_max` followed by a smoothstep decay that reaches
    /// [`RANGE_THRESHOLD`] at the nominal range (for unit power gain).
    pub fn reception_prob(&self, distance: f64) -> f64 {
        self.reception_prob_shadowed(distance, 0.0)
    }

    /// Reception probability with an explicit shadowing draw `z` (standard
    /// normal): the effective distance becomes `distance · exp(sigma · z)`.
    /// Links whose shadowed distance exceeds the range are blocked even if
    /// geometrically close.
    ///
    /// Power gain divides the effective distance *and* lifts the plateau
    /// probability to `1 − (1 − p_max) / gain` (more power improves the SNR
    /// on short links too).
    ///
    /// # Panics
    ///
    /// Panics if `distance` is negative or `z` is not finite.
    pub fn reception_prob_shadowed(&self, distance: f64, z: f64) -> f64 {
        assert!(
            distance.is_finite() && distance >= 0.0,
            "distance must be non-negative"
        );
        assert!(z.is_finite(), "shadowing draw must be finite");
        if distance > self.reach() {
            return 0.0; // beyond even opportunistic reception
        }
        let shadowed = distance * (self.shadowing_sigma * z).exp();
        let effective = shadowed / self.power_gain;
        let p_max = 1.0 - (1.0 - self.p_max) / self.power_gain;
        let plateau_end = self.plateau_frac * self.nominal_range;
        let raw = if effective > self.reach() {
            0.0 // shadowed into the noise floor
        } else if effective > self.nominal_range {
            // Opportunistic tail: the threshold probability decays to zero
            // at the cutoff. Interference accounting stops at the range;
            // reception does not.
            let span = (self.opportunistic_cutoff - 1.0).max(1e-12);
            let t = ((effective / self.nominal_range - 1.0) / span).min(1.0);
            RANGE_THRESHOLD * (1.0 - t * t * (3.0 - 2.0 * t))
        } else if effective <= plateau_end {
            p_max
        } else {
            let span = self.nominal_range - plateau_end;
            let t = ((effective - plateau_end) / span).clamp(0.0, 1.0);
            let s = t * t * (3.0 - 2.0 * t); // smoothstep
            p_max - (p_max - RANGE_THRESHOLD) * s
        };
        if distance <= self.nominal_range {
            // Shadowing degrades but never kills a geometrically in-range
            // link: a small residual probability keeps the in-range link set
            // identical across power levels and preserves connectivity.
            raw.max(SHADOWED_FLOOR)
        } else {
            raw
        }
    }
}

impl Default for Phy {
    fn default() -> Self {
        Phy::paper_lossy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerically computes the expected link reception probability over
    /// links whose endpoints are uniformly random within range of each other
    /// (distance density `2u du` on `[0, range]`, ignoring border effects).
    /// The calibration tests check it against the paper's quoted averages.
    fn expected_link_quality(phy: &Phy) -> f64 {
        let steps = 2_000;
        let z_steps = 41;
        let mut num = 0.0;
        let mut den = 0.0;
        for k in 0..steps {
            let u = (k as f64 + 0.5) / steps as f64;
            let w = 2.0 * u;
            if phy.shadowing_sigma == 0.0 {
                num += w * phy.reception_prob(u * phy.nominal_range);
                den += w;
            } else {
                // Gauss-ish quadrature over the shadowing draw.
                for j in 0..z_steps {
                    let z = -3.0 + 6.0 * j as f64 / (z_steps - 1) as f64;
                    let pdf = (-0.5 * z * z).exp();
                    num += w * pdf * phy.reception_prob_shadowed(u * phy.nominal_range, z);
                    den += w * pdf;
                }
            }
        }
        num / den
    }

    #[test]
    fn probability_is_monotone_nonincreasing_within_range() {
        let phy = Phy::paper_lossy();
        let mut prev = 1.0;
        for k in 0..=1000 {
            let d = phy.range() * k as f64 / 1000.0;
            let p = phy.reception_prob(d);
            assert!(p <= prev + 1e-12, "not monotone at d={d}");
            assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
    }

    #[test]
    fn range_is_the_threshold_crossing() {
        let phy = Phy::paper_lossy();
        assert!((phy.reception_prob(phy.range()) - RANGE_THRESHOLD).abs() < 1e-9);
        // Beyond the range: opportunistic tail below the threshold, zero at
        // the cutoff.
        let tail = phy.reception_prob(phy.range() * 1.5);
        assert!(tail > 0.0 && tail < RANGE_THRESHOLD, "tail p {tail}");
        assert_eq!(
            phy.reception_prob(phy.range() * OPPORTUNISTIC_CUTOFF + 1.0),
            0.0
        );
    }

    #[test]
    fn lossy_calibration_matches_paper_average() {
        // Paper, Sec. 5: "average reception probability is 0.58".
        let q = expected_link_quality(&Phy::paper_lossy());
        assert!((0.54..=0.62).contains(&q), "expected ~0.58, got {q}");
    }

    #[test]
    fn high_quality_calibration_matches_paper_average() {
        // Paper, Sec. 5: power increased so that the average rises to 0.91.
        let q = expected_link_quality(&Phy::paper_high_quality());
        assert!((0.87..=0.94).contains(&q), "expected ~0.91, got {q}");
    }

    #[test]
    fn power_gain_never_shrinks_probability() {
        let lossy = Phy::paper_lossy();
        let strong = Phy::paper_high_quality();
        for k in 0..=100 {
            let d = lossy.range() * k as f64 / 100.0;
            assert!(strong.reception_prob(d) >= lossy.reception_prob(d) - 1e-12);
        }
    }

    #[test]
    fn power_gain_keeps_the_topology() {
        // Same range ⇒ same neighbor sets, per the paper's experiment design.
        assert_eq!(
            Phy::paper_lossy().range(),
            Phy::paper_high_quality().range()
        );
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(Phy::new(0.0, 0.9, 0.3).is_err());
        assert!(Phy::new(100.0, 0.1, 0.3).is_err()); // p_max below threshold
        assert!(Phy::new(100.0, 1.5, 0.3).is_err());
        assert!(Phy::new(100.0, 0.9, 1.0).is_err());
        assert!(Phy::new(f64::NAN, 0.9, 0.3).is_err());
    }

    #[test]
    #[should_panic(expected = "power gain must be positive")]
    fn zero_gain_panics() {
        let _ = Phy::paper_lossy().with_power_gain(0.0);
    }
}
