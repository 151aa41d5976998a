//! Geodesic Gaussian kernel density estimation.
//!
//! Equation 2 of the paper: for observed disaster events
//! `X = {x_1, …, x_N}`, the kernel likelihood at location `y` is
//!
//! ```text
//! p̂(y) = 1/(σ² N) · Σᵢ K((xᵢ − y)/σ),   K(z) = 1/(2π) · exp(−zᵀz/2)
//! ```
//!
//! We measure `‖xᵢ − y‖` as great-circle distance in **miles**, so the
//! bandwidth `σ` is in miles and densities are per square mile. At CONUS
//! scale the flat-metric Gaussian over geodesic distance is the standard
//! approximation (the same one the paper's kernel heat maps imply).

use crate::binned::TRUNCATION_SIGMAS;
use riskroute_geo::{GeoGrid, GeoPoint, EARTH_RADIUS_MILES};
use std::f64::consts::{FRAC_PI_2, LN_2, PI, TAU};

/// Miles per degree of latitude on the model sphere (`2πR/360`), so the
/// binned fast path and the haversine agree in the small-distance limit.
const MILES_PER_DEG_LAT: f64 = TAU * EARTH_RADIUS_MILES / 360.0;

/// Latitudes are clamped to this magnitude before taking cosines for the
/// longitude kernel, so grid margins that poke past the poles stay finite.
const MAX_KERNEL_LAT_DEG: f64 = 89.0;

/// Distance, in bandwidths, from which an event's Gaussian kernel is exactly
/// `+0.0`. `exp(−½·z²)` underflows to zero for z > ≈38.6; the margin up to
/// 40 absorbs any rounding in the haversine, so [`GeoKde::density`] skips
/// such events without moving a bit of its sum. It is the cut while the
/// running sum is `+0.0` or subnormal, and the cap on the tighter cut that
/// follows the sum's exponent.
pub const EXACT_ZERO_SIGMAS: f64 = 40.0;

/// Once the running sum has reached `2^e`, [`GeoKde::density`] skips terms
/// at most `2^(e − SUM_CUT_BITS)`. Adding anything below half an ulp,
/// `2^(e−53)`, rounds back to the sum; the three bits between 53 and 56
/// are a factor-8 margin for rounding in the haversine and `exp`.
const SUM_CUT_BITS: i32 = 56;

/// A fitted 2-D Gaussian kernel density estimate over geographic events.
#[derive(Debug, Clone)]
pub struct GeoKde {
    events: Vec<GeoPoint>,
    /// `cos(latitude)` of each event, in event order: the event side of
    /// every haversine, computed once here instead of once per query.
    cos_lat: Vec<f64>,
    bandwidth_miles: f64,
}

impl GeoKde {
    /// Fit a KDE to `events` with the given bandwidth (miles).
    ///
    /// # Panics
    /// Panics when `events` is empty or the bandwidth is not positive/finite.
    /// These are programming errors — callers obtain events from samplers
    /// that cannot produce empty sets, and bandwidths from
    /// [`select_bandwidth`](crate::select_bandwidth) which only emits valid
    /// candidates.
    pub fn fit(events: Vec<GeoPoint>, bandwidth_miles: f64) -> Self {
        assert!(!events.is_empty(), "KDE requires at least one event");
        assert!(
            bandwidth_miles.is_finite() && bandwidth_miles > 0.0,
            "bandwidth must be positive and finite, got {bandwidth_miles}"
        );
        let cos_lat = events.iter().map(|e| e.lat_rad().cos()).collect();
        GeoKde {
            events,
            cos_lat,
            bandwidth_miles,
        }
    }

    /// The fitted events.
    pub fn events(&self) -> &[GeoPoint] {
        &self.events
    }

    /// The kernel bandwidth in miles.
    pub fn bandwidth_miles(&self) -> f64 {
        self.bandwidth_miles
    }

    /// Density estimate `p̂(y)` in events per square mile.
    ///
    /// Exact, with every event skipped whose term provably leaves the
    /// running sum's bits unchanged. Events are visited in fit order and
    /// every kept term is computed with the operations of
    /// `great_circle_miles(event, y)`, so the result is bit for bit the
    /// plain sum over all events.
    ///
    /// The cut distance follows the running sum `S`. While `S` is `+0.0` or
    /// subnormal it is [`EXACT_ZERO_SIGMAS`], where every kernel is exactly
    /// `+0.0`. Once `S ≥ 2^e`, a term below half an ulp of `S` rounds away,
    /// so events with `exp(−½z²) ≤ 2^(e−56)` are skipped:
    /// `z_cut = √(2·ln2·(56−e))`, capped at 40. `S` never falls, so the cut
    /// only shrinks; it is recomputed when `S` enters a new power of two.
    ///
    /// Three tests prove a skip, cheapest first. The half latitude gap
    /// against the half cut angle (the meridian lower bound, no trig). Then
    /// a trig-free lower bound `h_lb ≤ h` on the haversine, with each sine
    /// replaced by `t − t³/6`; it is compared against the cut widened by
    /// `1e-9` relative and `1e-15` absolute, which exceeds its rounding, so
    /// it only skips events the exact test skips. Last the haversine `h`
    /// against the cut's `sin²` (`asin∘sqrt` is monotone). Past a
    /// half-angle of π/2 `sin²` stops rising, so the two `h` tests are
    /// switched off (`h_cut = +∞`).
    pub fn density(&self, y: GeoPoint) -> f64 {
        let s = self.bandwidth_miles;
        let norm = 1.0 / (TAU * s * s * self.events.len() as f64);
        let q = Query::new(y);
        let mut cut = Cut::at_sigmas(EXACT_ZERO_SIGMAS, s);
        // The biased exponent of `sum`: 0 while it is `+0.0` or subnormal.
        let mut binade = 0;
        let (mut pretested, mut evaluated) = (0_u64, 0_u64);
        // A literal `+0.0`: an empty `f64` sum is `-0.0`, but a query that
        // skips every event must still return `+0.0`, as the plain sum did.
        let mut sum = 0.0_f64;
        for (&x, &x_cos) in self.events.iter().zip(&self.cos_lat) {
            let dlat = q.half_dlat(x);
            if dlat.abs() >= cut.half {
                continue;
            }
            pretested += 1;
            let dlon = q.half_dlon(x);
            if q.haversine_lower_bound(dlat, dlon, x_cos) >= cut.h_lb {
                continue;
            }
            let h = q.haversine(dlat, dlon, x_cos);
            if h >= cut.h {
                continue;
            }
            evaluated += 1;
            let z = haversine_miles(h) / s;
            sum += (-0.5 * z * z).exp();
            let b = sum.to_bits() >> 52;
            if b != binade {
                binade = b;
                cut = Cut::for_binade(b, s);
            }
        }
        if riskroute_obs::is_enabled() {
            riskroute_obs::counter_add("kde_terms_pretested", pretested);
            riskroute_obs::counter_add("kde_terms_evaluated", evaluated);
        }
        norm * sum
    }

    /// Natural log of [`density`](Self::density), computed stably.
    ///
    /// Uses the log-sum-exp trick so the result is finite even when every
    /// event is many bandwidths away (where `density` underflows to zero,
    /// `log_density` still returns the correct large-negative value). No
    /// event is skipped here: the shift `m` needs every exponent.
    pub fn log_density(&self, y: GeoPoint) -> f64 {
        let s = self.bandwidth_miles;
        let q = Query::new(y);
        let exponents: Vec<f64> = self
            .events
            .iter()
            .zip(&self.cos_lat)
            .map(|(&x, &x_cos)| {
                let h = q.haversine(q.half_dlat(x), q.half_dlon(x), x_cos);
                let z = haversine_miles(h) / s;
                -0.5 * z * z
            })
            .collect();
        let m = exponents.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let sum: f64 = exponents.iter().map(|e| (e - m).exp()).sum();
        m + sum.ln() - (TAU * s * s * self.events.len() as f64).ln()
    }

    /// Evaluate the density at every cell center of `grid`, overwriting its
    /// values. Returns the grid for chaining.
    ///
    /// This is the binned fast path: events are histogrammed onto the grid
    /// with linear (bilinear) binning, then convolved with a separable
    /// truncated Gaussian — one longitude pass per row (with that row's
    /// `cos(latitude)` metric) and one shared latitude pass. Cost is
    /// `O(cells · kernel_width)` instead of the exact path's
    /// `O(cells · events)`, which is what makes 100k-event corpora and
    /// continental grids tractable.
    ///
    /// Approximation error versus [`evaluate_grid_exact`](Self::evaluate_grid_exact):
    ///
    /// - **Truncation**: the kernel is cut at [`TRUNCATION_SIGMAS`]·σ,
    ///   discarding `exp(−½·5²) ≈ 3.7·10⁻⁶` of each event's peak value.
    /// - **Linear binning**: second-order in the cell size,
    ///   `O((cell_miles/σ)²)` relative; mass is conserved exactly.
    /// - **Metric**: equirectangular distance with per-row cosine instead of
    ///   the haversine — sub-percent at CONUS scale for the bandwidths in
    ///   play.
    ///
    /// When the kernel half-width explodes relative to the grid (tiny grids
    /// or huge bandwidths, where binning would cost more than it saves),
    /// this falls back to the exact path, so callers always get a sensible
    /// answer.
    pub fn evaluate_grid(&self, grid: GeoGrid) -> GeoGrid {
        match self.evaluate_grid_binned(grid) {
            Ok(done) => done,
            Err(grid) => self.evaluate_grid_exact(grid),
        }
    }

    /// Exact per-cell evaluation: [`density`](Self::density) at every cell
    /// center (`O(cells · events)`). The reference for the binned fast path's
    /// tolerance tests, and the fallback when binning is not worthwhile.
    pub fn evaluate_grid_exact(&self, mut grid: GeoGrid) -> GeoGrid {
        grid.fill_with(|p| self.density(p));
        grid
    }

    /// Binned separable evaluation; `Err(grid)` hands the untouched grid
    /// back when the kernel margins are out of proportion to the grid.
    fn evaluate_grid_binned(&self, mut grid: GeoGrid) -> Result<GeoGrid, GeoGrid> {
        let (rows, cols) = (grid.rows(), grid.cols());
        let (lat_step, lon_step) = (grid.lat_step(), grid.lon_step());
        let s = self.bandwidth_miles;
        let support = TRUNCATION_SIGMAS * s;

        // Kernel half-widths in cells. The latitude metric is uniform; the
        // longitude metric shrinks with cos(lat), so its worst case is the
        // extended row nearest a pole.
        let lat_step_miles = lat_step * MILES_PER_DEG_LAT;
        let m_lat = (support / lat_step_miles).ceil() as usize;
        if m_lat > 4 * rows.max(64) {
            return Err(grid);
        }
        let south = grid.bounds().south();
        let ext_lat = |er: usize| -> f64 {
            let lat = south + (er as f64 - m_lat as f64 + 0.5) * lat_step;
            lat.clamp(-MAX_KERNEL_LAT_DEG, MAX_KERNEL_LAT_DEG)
        };
        let rows_ext = rows + 2 * m_lat;
        let cos_min = (0..rows_ext)
            .map(|er| ext_lat(er).to_radians().cos())
            .fold(f64::INFINITY, f64::min);
        let m_lon = (support / (lon_step * MILES_PER_DEG_LAT * cos_min)).ceil() as usize;
        if m_lon > 4 * cols.max(64) {
            return Err(grid);
        }
        let cols_ext = cols + 2 * m_lon;

        // Linear binning: each event splits its unit mass bilinearly over
        // the four surrounding cell centers of the extended raster. Events
        // beyond the margins contribute less than the truncation tail to any
        // grid cell, so they are dropped (the normalization still counts
        // them, exactly as the truncated kernel would).
        let west = grid.bounds().west();
        let mut hist = vec![0.0_f64; rows_ext * cols_ext];
        for e in &self.events {
            let er = (e.lat() - south) / lat_step - 0.5 + m_lat as f64;
            let ec = (e.lon() - west) / lon_step - 0.5 + m_lon as f64;
            let (r0, c0) = (er.floor(), ec.floor());
            let (fr, fc) = (er - r0, ec - c0);
            for (dr, wr) in [(0_i64, 1.0 - fr), (1, fr)] {
                for (dc, wc) in [(0_i64, 1.0 - fc), (1, fc)] {
                    let (r, c) = (r0 as i64 + dr, c0 as i64 + dc);
                    if (0..rows_ext as i64).contains(&r) && (0..cols_ext as i64).contains(&c) {
                        hist[r as usize * cols_ext + c as usize] += wr * wc;
                    }
                }
            }
        }

        // Pass 1 — longitude smear within each extended row, using that
        // row's cos(latitude) metric (the events in the row sit at
        // approximately its latitude, matching the haversine's cosine term).
        let mut smeared = vec![0.0_f64; rows_ext * cols];
        let mut klon: Vec<f64> = Vec::with_capacity(m_lon + 1);
        for er in 0..rows_ext {
            let lon_step_miles = lon_step * MILES_PER_DEG_LAT * ext_lat(er).to_radians().cos();
            let m_row = ((support / lon_step_miles).ceil() as usize).min(m_lon);
            klon.clear();
            klon.extend((0..=m_row).map(|j| {
                let z = j as f64 * lon_step_miles / s;
                (-0.5 * z * z).exp()
            }));
            let row = &hist[er * cols_ext..(er + 1) * cols_ext];
            for (col, out) in smeared[er * cols..(er + 1) * cols].iter_mut().enumerate() {
                let center = col + m_lon;
                let mut acc = row[center] * klon[0];
                for (j, &k) in klon.iter().enumerate().skip(1) {
                    acc += (row[center - j] + row[center + j]) * k;
                }
                *out = acc;
            }
        }

        // Pass 2 — latitude smear across rows with one shared kernel.
        let klat: Vec<f64> = (0..=m_lat)
            .map(|i| {
                let z = i as f64 * lat_step_miles / s;
                (-0.5 * z * z).exp()
            })
            .collect();
        let norm = 1.0 / (TAU * s * s * self.events.len() as f64);
        for row in 0..rows {
            let center = row + m_lat;
            for col in 0..cols {
                let mut acc = smeared[center * cols + col] * klat[0];
                for (i, &k) in klat.iter().enumerate().skip(1) {
                    acc += (smeared[(center - i) * cols + col] + smeared[(center + i) * cols + col])
                        * k;
                }
                grid.set(row, col, acc * norm);
            }
        }
        if riskroute_obs::is_enabled() {
            riskroute_obs::counter_add("kde_binned_evals", 1);
        }
        Ok(grid)
    }
}

/// The skip thresholds [`GeoKde::density`] applies at one cut distance.
struct Cut {
    /// Half the cut's central angle; a half latitude gap at least this
    /// skips.
    half: f64,
    /// `sin²(half)`, or `+∞` past a half-angle of π/2; a haversine at
    /// least this skips.
    h: f64,
    /// `h` widened past the rounding of the haversine's lower bound; a
    /// lower bound at least this skips.
    h_lb: f64,
}

impl Cut {
    fn at_sigmas(sigmas: f64, s: f64) -> Cut {
        let half = sigmas * s / (2.0 * EARTH_RADIUS_MILES);
        let h = if half >= FRAC_PI_2 {
            f64::INFINITY
        } else {
            half.sin().powi(2)
        };
        Cut {
            half,
            h,
            h_lb: h * (1.0 + 1e-9) + 1e-15,
        }
    }

    /// The cut once the running sum's biased exponent is `binade` (not 0):
    /// `exp(−½z²) = 2^(e−56)` at `z = √(2·ln2·(56−e))`, capped at
    /// [`EXACT_ZERO_SIGMAS`].
    fn for_binade(binade: u64, s: f64) -> Cut {
        let e = binade as i32 - 1023;
        let z = (2.0 * LN_2 * f64::from(SUM_CUT_BITS - e)).max(0.0).sqrt();
        Cut::at_sigmas(z.min(EXACT_ZERO_SIGMAS), s)
    }
}

/// The query side of `great_circle_miles(event, y)`, hoisted out of the
/// per-event loops. Each step keeps that function's operation order, so a
/// distance built from these pieces is bit-identical to the haversine's.
struct Query {
    lat_rad: f64,
    lon_rad: f64,
    cos_lat: f64,
}

impl Query {
    fn new(y: GeoPoint) -> Self {
        Query {
            lat_rad: y.lat_rad(),
            lon_rad: y.lon_rad(),
            cos_lat: y.lat_rad().cos(),
        }
    }

    /// Half the latitude difference from event `x` to the query, radians.
    #[inline]
    fn half_dlat(&self, x: GeoPoint) -> f64 {
        (self.lat_rad - x.lat_rad()) / 2.0
    }

    /// Half the longitude difference from event `x` to the query, radians.
    #[inline]
    fn half_dlon(&self, x: GeoPoint) -> f64 {
        (self.lon_rad - x.lon_rad()) / 2.0
    }

    /// The haversine `h` to the query from an event whose cosine of
    /// latitude is `x_cos`, given `dlat = self.half_dlat(x)` and
    /// `dlon = self.half_dlon(x)`.
    #[inline]
    fn haversine(&self, dlat: f64, dlon: f64, x_cos: f64) -> f64 {
        dlat.sin().powi(2) + x_cos * self.cos_lat * dlon.sin().powi(2)
    }

    /// A lower bound on [`haversine`](Self::haversine) with no trig call:
    /// each sine is replaced by `t − t³/6 ≤ sin t`, which holds and is
    /// non-negative for `t ∈ [0, π/2]`. `|dlat|` is at most π/2, half the
    /// span of latitudes. `dlon` lies in `[−π, π]`, and `sin²` is the same
    /// at `|dlon|` and `π − |dlon|`, so the bound takes whichever is at
    /// most π/2. Exact up to rounding, which [`Cut::h_lb`] absorbs.
    #[inline]
    fn haversine_lower_bound(&self, dlat: f64, dlon: f64, x_cos: f64) -> f64 {
        let below_sin = |t: f64| t - t * t * t * (1.0 / 6.0);
        let a = dlat.abs();
        let b = dlon.abs().min(PI - dlon.abs());
        let (sa, sb) = (below_sin(a), below_sin(b));
        sa * sa + x_cos * self.cos_lat * (sb * sb)
    }
}

/// Great-circle miles for the haversine `h`: the last step of
/// `great_circle_miles`.
#[inline]
fn haversine_miles(h: f64) -> f64 {
    2.0 * EARTH_RADIUS_MILES * h.sqrt().min(1.0).asin()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use riskroute_geo::bbox::CONUS;

    fn pt(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn density_peaks_at_events() {
        let kde = GeoKde::fit(vec![pt(35.0, -90.0)], 50.0);
        let at_event = kde.density(pt(35.0, -90.0));
        let nearby = kde.density(pt(35.5, -90.0));
        let far = kde.density(pt(45.0, -120.0));
        assert!(at_event > nearby);
        assert!(nearby > far);
    }

    #[test]
    fn density_at_single_event_matches_closed_form() {
        let s = 50.0;
        let kde = GeoKde::fit(vec![pt(35.0, -90.0)], s);
        let expect = 1.0 / (TAU * s * s);
        assert!((kde.density(pt(35.0, -90.0)) - expect).abs() < 1e-12);
    }

    #[test]
    fn density_is_monotone_in_distance_for_single_event() {
        let kde = GeoKde::fit(vec![pt(35.0, -90.0)], 100.0);
        let mut prev = f64::INFINITY;
        for d in [0.0, 50.0, 100.0, 200.0, 400.0, 800.0] {
            let y = riskroute_geo::distance::destination(pt(35.0, -90.0), 90.0, d);
            let v = kde.density(y);
            assert!(v < prev || d == 0.0);
            prev = v;
        }
    }

    #[test]
    fn wider_bandwidth_spreads_mass() {
        let events = vec![pt(35.0, -90.0)];
        let narrow = GeoKde::fit(events.clone(), 10.0);
        let wide = GeoKde::fit(events, 200.0);
        let far = pt(38.0, -90.0); // ~207 miles north
        assert!(wide.density(far) > narrow.density(far));
        assert!(narrow.density(pt(35.0, -90.0)) > wide.density(pt(35.0, -90.0)));
    }

    #[test]
    fn log_density_consistent_with_density() {
        let kde = GeoKde::fit(vec![pt(35.0, -90.0), pt(36.0, -91.0)], 80.0);
        let y = pt(35.5, -90.5);
        assert!((kde.log_density(y) - kde.density(y).ln()).abs() < 1e-9);
    }

    #[test]
    fn log_density_survives_underflow() {
        let kde = GeoKde::fit(vec![pt(25.0, -80.0)], 1.0);
        let antipode_ish = pt(49.0, -124.0);
        assert_eq!(
            kde.density(antipode_ish).to_bits(),
            0,
            "density underflows to +0.0"
        );
        let ld = kde.log_density(antipode_ish);
        assert!(ld.is_finite() && ld < -1000.0, "got {ld}");
    }

    #[test]
    fn grid_mass_approximates_one() {
        // Integrating p̂ over a grid that comfortably contains the events
        // should give ≈ 1 (cell area × density summed).
        let events = vec![pt(37.0, -95.0), pt(38.0, -96.0), pt(36.5, -94.0)];
        let kde = GeoKde::fit(events, 60.0);
        let grid = GeoGrid::new(CONUS, 100, 200).unwrap();
        let grid = kde.evaluate_grid(grid);
        // Cell area varies with latitude; approximate with per-row area.
        let mut mass = 0.0;
        for (row, _col, center, v) in grid.iter_cells() {
            let lat_step_miles = grid.lat_step() * 69.055;
            let lon_step_miles = grid.lon_step() * 69.17 * center.lat_rad().cos();
            mass += v * lat_step_miles * lon_step_miles;
            let _ = row;
        }
        assert!((mass - 1.0).abs() < 0.05, "integrated mass {mass}");
    }

    /// Deterministic seeded corpus scattered over the south-central US.
    fn seeded_corpus(seed: u64, n: usize) -> Vec<GeoPoint> {
        let mut rng = riskroute_rng::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let lat = 28.0 + rng.gen_f64() * 14.0;
                let lon = -105.0 + rng.gen_f64() * 20.0;
                pt(lat, lon)
            })
            .collect()
    }

    #[test]
    fn binned_grid_matches_exact_within_tolerance() {
        for (seed, n, bw) in [(7_u64, 300_usize, 60.0_f64), (11, 80, 45.0), (13, 500, 90.0)] {
            let kde = GeoKde::fit(seeded_corpus(seed, n), bw);
            // Fine enough that cell/σ ≤ ~0.25 for the narrowest bandwidth:
            // the linear-binning error is O((cell/σ)²), so the tolerances
            // below are meaningful only when the raster resolves the kernel.
            let start = std::time::Instant::now();
            let binned = kde.evaluate_grid(GeoGrid::new(CONUS, 160, 320).unwrap());
            let binned_time = start.elapsed();
            let start = std::time::Instant::now();
            let exact = kde.evaluate_grid_exact(GeoGrid::new(CONUS, 160, 320).unwrap());
            let exact_time = start.elapsed();
            // The binned path exists to be fast: on the 500-event corpus it
            // must beat the exact sum by at least 2x (the small corpora are
            // too cheap for a stable ratio).
            if n == 500 {
                assert!(
                    binned_time * 2 < exact_time,
                    "binned KDE ({binned_time:?}) must beat exact ({exact_time:?}) by at least 2x"
                );
            }
            let peak = exact
                .iter_cells()
                .map(|(_, _, _, v)| v)
                .fold(0.0_f64, f64::max);
            let mut l1_num = 0.0;
            let mut l1_den = 0.0;
            for (row, col, _, e) in exact.iter_cells() {
                let b = binned.get(row, col);
                l1_num += (b - e).abs();
                l1_den += e;
                // Pointwise bounds track the O((cell/σ)²) linear-binning
                // error: tight where the surface carries real mass, looser
                // in the faint tails where the relative curvature blows up.
                let tol = if e > 0.05 * peak { 0.05 } else { 0.10 };
                if e > 0.01 * peak {
                    assert!(
                        (b - e).abs() / e < tol,
                        "seed {seed}: cell ({row},{col}) binned {b} vs exact {e}"
                    );
                }
            }
            assert!(
                l1_num / l1_den < 0.02,
                "seed {seed}: relative L1 error {}",
                l1_num / l1_den
            );
        }
    }

    #[test]
    fn binned_grid_falls_back_to_exact_for_disproportionate_kernels() {
        // A 1°×1° patch with a 2000-mile bandwidth: the truncated kernel is
        // thousands of cells wide, so the fast path must defer to the exact
        // one — bit-for-bit.
        let bounds = riskroute_geo::BoundingBox::new(35.0, -100.0, 36.0, -99.0).unwrap();
        let kde = GeoKde::fit(seeded_corpus(3, 20), 2000.0);
        let fast = kde.evaluate_grid(GeoGrid::new(bounds, 8, 8).unwrap());
        let exact = kde.evaluate_grid_exact(GeoGrid::new(bounds, 8, 8).unwrap());
        for (row, col, _, v) in exact.iter_cells() {
            assert_eq!(fast.get(row, col), v);
        }
    }

    #[test]
    #[should_panic(expected = "at least one event")]
    fn empty_events_panics() {
        let _ = GeoKde::fit(vec![], 10.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        let _ = GeoKde::fit(vec![pt(35.0, -90.0)], 0.0);
    }

    #[test]
    fn accessors() {
        let kde = GeoKde::fit(vec![pt(35.0, -90.0)], 42.0);
        assert_eq!(kde.bandwidth_miles(), 42.0);
        assert_eq!(kde.events().len(), 1);
    }
}
