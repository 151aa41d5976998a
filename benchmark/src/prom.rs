//! Reading the serve daemon's `GET /metrics` scrape (Prometheus text
//! exposition) and estimating quantiles from histogram deltas.

use std::collections::BTreeMap;

/// One scrape: plain samples by series name, and the cumulative `le`
/// buckets of each histogram family.
#[derive(Debug, Default)]
pub struct Scrape {
    values: BTreeMap<String, f64>,
    buckets: BTreeMap<String, Vec<(f64, f64)>>,
}

impl Scrape {
    /// Parse a scrape. An HTTP response head, comments and blank lines are
    /// skipped.
    ///
    /// # Errors
    /// A sample line without a numeric value.
    pub fn parse(text: &str) -> Result<Scrape, String> {
        let body = text.split_once("\r\n\r\n").map_or(text, |(_, body)| body);
        let mut scrape = Scrape::default();
        for line in body.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (series, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("metrics line without a value: {line:?}"))?;
            let value: f64 = value
                .parse()
                .map_err(|_| format!("metrics line with a bad value: {line:?}"))?;
            match series.split_once('{') {
                Some((name, labels)) => {
                    let Some(family) = name.strip_suffix("_bucket") else {
                        continue;
                    };
                    let le = labels
                        .strip_prefix("le=\"")
                        .and_then(|l| l.strip_suffix("\"}"))
                        .ok_or_else(|| format!("bucket line without an le label: {line:?}"))?;
                    let le = if le == "+Inf" {
                        f64::INFINITY
                    } else {
                        le.parse()
                            .map_err(|_| format!("bucket line with a bad le: {line:?}"))?
                    };
                    scrape
                        .buckets
                        .entry(family.to_string())
                        .or_default()
                        .push((le, value));
                }
                None => {
                    scrape.values.insert(series.to_string(), value);
                }
            }
        }
        Ok(scrape)
    }

    /// A plain sample's value; 0 for a series the scrape does not carry
    /// (counters appear on first increment).
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Growth of a counter from `before` to `self`.
    pub fn delta(&self, before: &Scrape, name: &str) -> f64 {
        self.value(name) - before.value(name)
    }
}

/// The `q`-quantile (0 < q ≤ 1) of the observations a histogram family
/// gained between two scrapes, interpolated linearly inside the bucket that
/// holds it, as Prometheus' `histogram_quantile` does. `None` when the
/// family gained no observations.
pub fn quantile_between(before: &Scrape, after: &Scrape, family: &str, q: f64) -> Option<f64> {
    let after_buckets = after.buckets.get(family)?;
    let before_of = |le: f64| {
        before
            .buckets
            .get(family)
            .and_then(|b| b.iter().find(|&&(l, _)| l == le))
            .map_or(0.0, |&(_, c)| c)
    };
    let cumulative: Vec<(f64, f64)> = after_buckets
        .iter()
        .map(|&(le, c)| (le, c - before_of(le)))
        .collect();
    let total = cumulative.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let rank = q * total;
    let (mut lower, mut below) = (0.0, 0.0);
    for &(le, cum) in &cumulative {
        if cum >= rank {
            if le.is_infinite() {
                return Some(lower);
            }
            return Some(lower + (le - lower) * (rank - below) / (cum - below));
        }
        lower = le;
        below = cum;
    }
    Some(lower)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scrape captured from `riskroute serve` after three `route`
    /// requests (trimmed to the aggregate histograms and the counters).
    const CAPTURED: &str = include_str!("testdata/metrics.txt");

    #[test]
    fn counters_and_buckets_parse_from_a_live_scrape() {
        let s = Scrape::parse(CAPTURED).expect("captured scrape parses");
        assert_eq!(s.value("riskroute_risk_sssp_runs"), 4.0);
        assert_eq!(s.value("riskroute_route_cache_hits"), 2.0);
        assert_eq!(s.value("riskroute_serve_request_us_count"), 3.0);
        assert_eq!(s.value("riskroute_never_incremented"), 0.0);
        let family = &s.buckets["riskroute_serve_request_us"];
        assert_eq!(family.len(), 25);
        assert_eq!(family.last(), Some(&(f64::INFINITY, 3.0)));
        // Per-op families stay separate from the aggregate.
        assert_eq!(s.buckets["riskroute_serve_request_us_sweep"].len(), 25);
    }

    #[test]
    fn quantiles_interpolate_inside_the_bucket() {
        let after = Scrape::parse(CAPTURED).expect("captured scrape parses");
        let empty = Scrape::default();
        let family = "riskroute_serve_request_us";
        // Observations: one in (4, 8], one in (8, 16], one in (16384, 32768].
        assert_eq!(quantile_between(&empty, &after, family, 0.5), Some(12.0));
        let p99 = quantile_between(&empty, &after, family, 0.99).expect("has observations");
        assert!((p99 - (16_384.0 + 16_384.0 * 0.97)).abs() < 1e-9, "{p99}");
        assert_eq!(quantile_between(&after, &after, family, 0.5), None);
        assert_eq!(
            quantile_between(&empty, &after, "riskroute_missing", 0.5),
            None
        );
    }

    #[test]
    fn quantiles_use_only_the_delta() {
        let before =
            Scrape::parse("riskroute_h_bucket{le=\"8\"} 1\nriskroute_h_bucket{le=\"16\"} 1\nriskroute_h_bucket{le=\"+Inf\"} 1\n")
                .expect("parses");
        let after =
            Scrape::parse("riskroute_h_bucket{le=\"8\"} 1\nriskroute_h_bucket{le=\"16\"} 3\nriskroute_h_bucket{le=\"+Inf\"} 4\n")
                .expect("parses");
        // Gained: two in (8, 16] and one above 16.
        assert_eq!(
            quantile_between(&before, &after, "riskroute_h", 0.5),
            Some(14.0)
        );
        assert_eq!(
            quantile_between(&before, &after, "riskroute_h", 1.0),
            Some(16.0)
        );
        assert_eq!(after.delta(&before, "riskroute_missing"), 0.0);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Scrape::parse("riskroute_x\n").is_err());
        assert!(Scrape::parse("riskroute_x abc\n").is_err());
        assert!(Scrape::parse("riskroute_h_bucket{quantile=\"1\"} 2\n").is_err());
    }
}
