//! Simple linear regression and the coefficient of determination.
//!
//! Table 3 of the paper reports R² between regional-network characteristics
//! (PoP count, footprint, outdegree, …) and the observed risk-reduction /
//! distance-increase ratios.

/// An ordinary-least-squares fit `y ≈ slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]`.
    pub r_squared: f64,
    /// Number of samples fitted.
    pub n: usize,
}

impl LinearFit {
    /// Fit `y` against `x` by ordinary least squares.
    ///
    /// # Panics
    /// Panics when the slices differ in length, contain fewer than two
    /// points, or contain non-finite values.
    pub fn fit(x: &[f64], y: &[f64]) -> LinearFit {
        assert_eq!(x.len(), y.len(), "x and y must have equal length");
        assert!(x.len() >= 2, "need at least two points to fit a line");
        assert!(
            x.iter().chain(y.iter()).all(|v| v.is_finite()),
            "inputs must be finite"
        );
        let n = x.len() as f64;
        let mx = x.iter().sum::<f64>() / n;
        let my = y.iter().sum::<f64>() / n;
        let sxx: f64 = x.iter().map(|&v| (v - mx) * (v - mx)).sum();
        let sxy: f64 = x.iter().zip(y).map(|(&a, &b)| (a - mx) * (b - my)).sum();
        let syy: f64 = y.iter().map(|&v| (v - my) * (v - my)).sum();

        // Degenerate spreads: a constant x cannot explain y (slope 0, R²=0);
        // a constant y is explained perfectly by any horizontal line (R²=1).
        if sxx == 0.0 {
            return LinearFit {
                slope: 0.0,
                intercept: my,
                r_squared: if syy == 0.0 { 1.0 } else { 0.0 },
                n: x.len(),
            };
        }
        let slope = sxy / sxx;
        let intercept = my - slope * mx;
        let r_squared = if syy == 0.0 {
            1.0
        } else {
            ((sxy * sxy) / (sxx * syy)).clamp(0.0, 1.0)
        };
        LinearFit {
            slope,
            intercept,
            r_squared,
            n: x.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn perfect_line_recovers_parameters() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x.iter().map(|&v| 2.5 * v - 1.0).collect();
        let fit = LinearFit::fit(&x, &y);
        assert!((fit.slope - 2.5).abs() < 1e-12);
        assert!((fit.intercept + 1.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert_eq!(fit.n, 4);
    }

    #[test]
    fn noisy_data_has_partial_r_squared() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let y = [1.2, 1.9, 3.4, 3.6, 5.3, 5.8];
        let fit = LinearFit::fit(&x, &y);
        assert!(fit.r_squared > 0.9 && fit.r_squared < 1.0);
    }

    #[test]
    fn uncorrelated_data_has_low_r_squared() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let y = [5.0, 1.0, 4.0, 2.0, 5.5, 0.5, 4.5, 1.5];
        let fit = LinearFit::fit(&x, &y);
        assert!(fit.r_squared < 0.2, "got {}", fit.r_squared);
    }

    #[test]
    fn constant_x_degenerate() {
        let fit = LinearFit::fit(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]);
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.r_squared, 0.0);
        assert!((fit.intercept - 2.0).abs() < 1e-12);
    }

    #[test]
    fn constant_y_degenerate() {
        let fit = LinearFit::fit(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]);
        assert_eq!(fit.r_squared, 1.0);
        assert_eq!(fit.slope, 0.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let _ = LinearFit::fit(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn single_point_panics() {
        let _ = LinearFit::fit(&[1.0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_input_panics() {
        let _ = LinearFit::fit(&[1.0, f64::NAN], &[1.0, 2.0]);
    }
}
