//! Disaster replay (§7.3): advisory-by-advisory evaluation of RiskRoute
//! during Hurricanes Irene, Katrina, and Sandy.
//!
//! For each public advisory, the forecast risk field is rebuilt from the
//! advisory *text* (exercising the §4.4 NLP path), every PoP's forecast risk
//! `o_f` is refreshed, and the network's risk-reduction ratio against
//! shortest-path routing is recomputed — producing the Figure 12/13 time
//! series.
//!
//! **Degraded mode.** A replay never aborts on a bad advisory: when the
//! advisory text fails to parse (truncated feed, garbled transmission — the
//! chaos harness injects exactly this), the λ_f forecast term is dropped for
//! that tick, routing continues on historical risk alone, and the tick is
//! flagged [`ReplayTick::degraded`]. The tick count of a corrupted replay is
//! therefore identical to the clean run's; only the flagged ticks' ratios
//! revert to the historical-only baseline.

use crate::budget::{budgeted_waves, Budgeted, WorkBudget};
use crate::error::{Error, Result};
use crate::intradomain::Planner;
use crate::ratios::RatioReport;
use riskroute_forecast::{advisories_for, ForecastRisk, Storm};
use riskroute_geo::GeoPoint;
use riskroute_par::Parallelism;
use riskroute_topology::Network;
use std::sync::{Mutex, PoisonError};

/// How many replay ticks are computed between checkpoint callbacks in
/// [`replay_raw_advisories_budgeted`] — small enough that an interrupted
/// sweep loses little work, large enough that snapshot I/O stays off the
/// hot path.
pub const CHECKPOINT_BATCH: usize = 8;

/// An advisory as it arrives off the wire: number, timestamp label, and the
/// raw text the §4.4 parser consumes. The chaos harness corrupts the `text`
/// field to exercise the degraded replay path.
#[derive(Debug, Clone, PartialEq)]
pub struct RawAdvisory {
    /// Advisory number (1-based).
    pub number: usize,
    /// NHC-style timestamp label.
    pub label: String,
    /// The advisory text to parse.
    pub text: String,
}

/// One advisory tick of a replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayTick {
    /// Advisory number (1-based).
    pub advisory: usize,
    /// NHC-style timestamp label.
    pub label: String,
    /// PoPs currently inside tropical-storm-force winds.
    pub pops_in_scope: usize,
    /// PoPs currently inside hurricane-force winds.
    pub pops_in_hurricane_winds: usize,
    /// The Eq. 5/6 ratios at this tick.
    pub report: RatioReport,
    /// Whether this tick ran in degraded mode: the advisory text failed to
    /// parse, so the forecast term was dropped and the ratios reflect
    /// historical risk only.
    pub degraded: bool,
}

/// A replayed storm over one network (or merged interdomain topology).
#[derive(Debug, Clone, PartialEq)]
pub struct DisasterReplay {
    /// The storm replayed.
    pub storm: String,
    /// The network evaluated.
    pub network: String,
    /// Ticks, in advisory order.
    pub ticks: Vec<ReplayTick>,
}

impl DisasterReplay {
    /// The tick with the largest risk-reduction ratio (the storm's peak
    /// effect on routing), or `None` for an empty replay.
    pub fn peak(&self) -> Option<&ReplayTick> {
        self.ticks.iter().max_by(|a, b| {
            a.report
                .risk_reduction_ratio
                .total_cmp(&b.report.risk_reduction_ratio)
        })
    }

    /// Number of ticks that ran in degraded (forecast-dropped) mode.
    pub fn degraded_ticks(&self) -> usize {
        self.ticks.iter().filter(|t| t.degraded).count()
    }

    /// Maximum number of PoPs ever inside hurricane-force winds — the §7.3
    /// "PoPs in the path of the event" count.
    pub fn max_pops_in_hurricane_winds(&self) -> usize {
        self.ticks
            .iter()
            .map(|t| t.pops_in_hurricane_winds)
            .max()
            .unwrap_or(0)
    }
}

/// Replay a storm over a network using explicit pair sets (merged
/// interdomain callers restrict sources/destinations).
///
/// `base` must carry the historical risk and shares for `locations`'
/// topology; its forecast vector is overwritten per tick and the λ weights
/// are left untouched (use [`crate::metric::RiskWeights::PAPER`] for the
/// paper's configuration). Every `stride`-th advisory is evaluated
/// (Figures 12–13 plot a subsampled series; `stride = 1` evaluates all).
///
/// # Errors
/// [`Error::InvalidArgument`] when `stride` is zero or `locations` does
/// not match the planner's PoP count.
pub fn replay_storm_over_pairs(
    base: &Planner,
    network_name: &str,
    locations: &[GeoPoint],
    storm: Storm,
    stride: usize,
    sources: &[usize],
    dests: &[usize],
) -> Result<DisasterReplay> {
    let raws = raw_advisories(storm, stride)?;
    replay_raw_advisories(
        base,
        network_name,
        locations,
        storm.name(),
        &raws,
        sources,
        dests,
    )
}

/// The storm's advisory series rendered to wire form ([`RawAdvisory`]),
/// every `stride`-th advisory. This is the text stream
/// [`replay_raw_advisories`] consumes — and the one the chaos harness
/// corrupts before feeding it back in.
///
/// # Errors
/// [`Error::InvalidArgument`] when `stride` is zero.
pub fn raw_advisories(storm: Storm, stride: usize) -> Result<Vec<RawAdvisory>> {
    check_stride(stride)?;
    Ok(advisories_for(storm)
        .iter()
        .step_by(stride)
        .map(|adv| RawAdvisory {
            number: adv.number,
            label: adv.timestamp.label(),
            text: adv.to_text(),
        })
        .collect())
}

fn check_stride(stride: usize) -> Result<()> {
    if stride == 0 {
        return Err(Error::InvalidArgument {
            context: "stride".into(),
            message: "must be positive (got 0)".into(),
        });
    }
    Ok(())
}

fn check_locations(locations: &[GeoPoint], base: &Planner) -> Result<()> {
    if locations.len() != base.pop_count() {
        return Err(Error::InvalidArgument {
            context: "locations".into(),
            message: format!(
                "must cover every PoP ({} locations for {} PoPs)",
                locations.len(),
                base.pop_count()
            ),
        });
    }
    Ok(())
}

/// Replay an explicit raw-advisory stream over explicit pair sets — the
/// lowest-level replay entry point, used by the chaos harness to feed
/// corrupted advisory text. Each advisory that fails to parse yields a
/// *degraded* tick (forecast term dropped, historical risk only) instead of
/// aborting; the returned replay always has exactly `raws.len()` ticks.
///
/// # Errors
/// [`Error::InvalidArgument`] when `locations` does not match the
/// planner's PoP count.
pub fn replay_raw_advisories(
    base: &Planner,
    network_name: &str,
    locations: &[GeoPoint],
    storm_name: &str,
    raws: &[RawAdvisory],
    sources: &[usize],
    dests: &[usize],
) -> Result<DisasterReplay> {
    let run = replay_raw_advisories_budgeted(
        base,
        network_name,
        locations,
        storm_name,
        raws,
        sources,
        dests,
        Vec::new(),
        &WorkBudget::unlimited(),
        |_| {},
    )?;
    let (replay, _) = run.into_parts();
    Ok(replay)
}

/// Budget-aware replay of a raw-advisory stream, resumable at any tick
/// boundary.
///
/// Each replay tick is an independent function of the base planner and one
/// advisory (the forecast field is rebuilt from scratch per tick), so a
/// sweep can stop after any tick and continue later with **bit-identical**
/// results: pass the partial replay's `ticks` back as `prior_ticks` and the
/// loop picks up at `prior_ticks.len()`.
///
/// Ticks run on per-worker clones of `base`. The budget is checked before
/// each wave of ticks (every tick with one worker) and charged one work
/// unit per tick computed. `on_batch` fires with the replay-so-far after
/// every [`CHECKPOINT_BATCH`] newly computed ticks — the hook the CLI uses
/// to write crash-safe snapshots (see [`crate::checkpoint::Snapshot`]).
///
/// # Errors
/// [`Error::InvalidArgument`] when `locations` does not match the
/// planner's PoP count or `prior_ticks` is longer than `raws`.
#[allow(clippy::too_many_arguments)]
pub fn replay_raw_advisories_budgeted(
    base: &Planner,
    network_name: &str,
    locations: &[GeoPoint],
    storm_name: &str,
    raws: &[RawAdvisory],
    sources: &[usize],
    dests: &[usize],
    prior_ticks: Vec<ReplayTick>,
    budget: &WorkBudget,
    on_batch: impl FnMut(&DisasterReplay),
) -> Result<Budgeted<DisasterReplay>> {
    // Attribute the whole replay to the budget owner's trace.
    let _obs = budget.scope().enter();
    check_locations(locations, base)?;
    if prior_ticks.len() > raws.len() {
        return Err(Error::InvalidArgument {
            context: "prior_ticks".into(),
            message: format!(
                "resume state has {} ticks but the advisory stream has only {}",
                prior_ticks.len(),
                raws.len()
            ),
        });
    }
    let mut replay = DisasterReplay {
        storm: storm_name.to_string(),
        network: network_name.to_string(),
        ticks: prior_ticks,
    };
    // One planner per worker slot, each carrying its forecast from tick to
    // tick: a tick whose ρ matches its slot's previous tick keeps the cost
    // stamp and reuses that tick's trees, and every tick reuses the
    // distance trees (keyed by topology, shared through the base's cache
    // by every slot). Items running at once never share
    // a slot, and the route-tree cache is exact, so ticks are bit-identical
    // whichever planner runs them. Within-tick sweeps run on one worker
    // since the fan-out is already tick-level.
    let slots: Vec<Mutex<Planner>> = (0..base.parallelism().workers().min(raws.len()))
        .map(|_| Mutex::new(base.clone().with_parallelism(Parallelism::Sequential)))
        .collect();
    let stop = budgeted_waves(
        base.parallelism(),
        raws,
        &mut replay,
        |r| &mut r.ticks,
        budget,
        |i, raw| {
            // A poisoned slot only means an earlier tick panicked, which
            // already fails the whole replay.
            let mut planner = slots[i % slots.len()]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            replay_tick(&mut planner, raw, locations, sources, dests)
        },
        on_batch,
    )?;
    Ok(Budgeted::new(replay, stop))
}

/// Replay a storm over one network, all PoP pairs (the Figure-12
/// intradomain configuration).
///
/// # Errors
/// Same contract as [`replay_storm_over_pairs`].
pub fn replay_storm(
    base: &Planner,
    network: &Network,
    storm: Storm,
    stride: usize,
) -> Result<DisasterReplay> {
    let locations: Vec<GeoPoint> = network.pops().iter().map(|p| p.location).collect();
    let all: Vec<usize> = (0..network.pop_count()).collect();
    replay_storm_over_pairs(base, network.name(), &locations, storm, stride, &all, &all)
}

/// A continuously fed replay against one warm planner — the engine behind
/// `riskroute replay --stream`, which parses NDJSON advisories as they
/// arrive and evaluates each against the warm engine.
///
/// Unlike the batch replays, a session has no advisory list up front: feed
/// [`tick`](Self::tick) one [`RawAdvisory`] at a time and it returns the
/// finished [`ReplayTick`]. The session owns a single planner clone and
/// mutates its forecast in place, so a tick whose forecast is
/// bitwise-unchanged (or ρ-invisible) keeps the cost stamp and recomputes
/// nothing at all, and any other tick still reuses every distance tree.
/// Ticks run through the same tick function as the batch
/// replay, and the route-tree cache is exact, so streaming a recorded
/// advisory series reproduces [`replay_raw_advisories`] byte for byte.
#[derive(Debug)]
pub struct ReplaySession {
    planner: Planner,
    locations: Vec<GeoPoint>,
    sources: Vec<usize>,
    dests: Vec<usize>,
    ticks: usize,
    degraded: usize,
}

impl ReplaySession {
    /// Open a session over all PoP pairs of the planner's network.
    ///
    /// # Errors
    /// [`Error::InvalidArgument`] when `locations` does not match the
    /// planner's PoP count.
    pub fn all_pairs(base: &Planner, locations: &[GeoPoint]) -> Result<ReplaySession> {
        check_locations(locations, base)?;
        let all: Vec<usize> = (0..base.pop_count()).collect();
        Ok(ReplaySession {
            planner: base.clone(),
            locations: locations.to_vec(),
            sources: all.clone(),
            dests: all,
            ticks: 0,
            degraded: 0,
        })
    }

    /// Evaluate one advisory against the warm engine and return the tick.
    pub fn tick(&mut self, raw: &RawAdvisory) -> ReplayTick {
        let tick = replay_tick(
            &mut self.planner,
            raw,
            &self.locations,
            &self.sources,
            &self.dests,
        );
        self.ticks += 1;
        if tick.degraded {
            self.degraded += 1;
        }
        tick
    }

    /// Number of advisories evaluated so far.
    pub fn ticks_processed(&self) -> usize {
        self.ticks
    }

    /// Number of degraded (unparseable-advisory) ticks so far.
    pub fn degraded_ticks(&self) -> usize {
        self.degraded
    }
}

/// One replay tick, shared by the batch driver and [`ReplaySession`]: set
/// `planner`'s forecast from the advisory text and sweep the pairs, inside
/// a `replay_tick` span that also counts the tick.
fn replay_tick(
    planner: &mut Planner,
    raw: &RawAdvisory,
    locations: &[GeoPoint],
    sources: &[usize],
    dests: &[usize],
) -> ReplayTick {
    let mut span = riskroute_obs::span!("replay_tick");
    // §4.4: risk is derived from the advisory *text*. A parse failure drops
    // the forecast term for this tick (degraded mode) rather than aborting
    // the replay.
    let field = ForecastRisk::from_advisory_text(&raw.text).ok();
    let tick = evaluate_tick(
        planner,
        field.as_ref(),
        raw.number,
        raw.label.clone(),
        locations,
        sources,
        dests,
    );
    if span.is_active() {
        span.field("advisory", raw.number);
        span.field("degraded", u64::from(tick.degraded));
        riskroute_obs::counter_add("replay_ticks", 1);
        if tick.degraded {
            riskroute_obs::counter_add("replay_degraded_ticks", 1);
        }
    }
    tick
}

/// The tick every replay evaluates: set `planner`'s forecast from `field`
/// and sweep the pairs. No field (an advisory that did not parse) is a
/// degraded tick: zero forecast, no PoP in scope.
fn evaluate_tick(
    planner: &mut Planner,
    field: Option<&ForecastRisk>,
    advisory: usize,
    label: String,
    locations: &[GeoPoint],
    sources: &[usize],
    dests: &[usize],
) -> ReplayTick {
    let (forecast, pops_in_scope, pops_in_hurricane_winds) = match field {
        Some(f) => (
            locations.iter().map(|&p| f.risk(p)).collect(),
            locations.iter().filter(|&&p| f.in_scope(p)).count(),
            locations
                .iter()
                .filter(|&&p| f.in_hurricane_winds(p))
                .count(),
        ),
        None => (vec![0.0; locations.len()], 0, 0),
    };
    planner.set_forecast(forecast);
    let report = planner.ratio_report_for(sources, dests);
    ReplayTick {
        advisory,
        label,
        pops_in_scope,
        pops_in_hurricane_winds,
        report,
        degraded: field.is_none(),
    }
}

/// Replay a storm *proactively*: at each tick the forecast risk is built
/// from the storm's **projected** position `lead_hours` ahead (motion
/// extrapolated from the previous advisory, uncertainty cone widened,
/// confidence-discounted) instead of its current position — the
/// reroute-before-landfall behaviour the paper's §1 motivation describes
/// operators doing by hand before Sandy.
///
/// The first advisory has no predecessor to infer motion from, so the
/// series starts at the second advisory.
///
/// # Errors
/// Same contract as [`replay_storm`].
pub fn replay_storm_proactive(
    base: &Planner,
    network: &Network,
    storm: Storm,
    stride: usize,
    lead_hours: f64,
) -> Result<DisasterReplay> {
    check_stride(stride)?;
    let locations: Vec<GeoPoint> = network.pops().iter().map(|p| p.location).collect();
    check_locations(&locations, base)?;
    let all: Vec<usize> = (0..network.pop_count()).collect();
    let advisories = advisories_for(storm);
    let mut planner = base.clone();
    let ticks = (advisories.windows(2).step_by(stride))
        .map(|pair| {
            let (prev, adv) = (&pair[0], &pair[1]);
            let projected = riskroute_forecast::project(prev, adv, lead_hours);
            evaluate_tick(
                &mut planner,
                Some(&projected.field),
                adv.number,
                adv.timestamp.label(),
                &locations,
                &all,
                &all,
            )
        })
        .collect();
    Ok(DisasterReplay {
        storm: storm.name().to_string(),
        network: network.name().to_string(),
        ticks,
    })
}

/// Fraction of `locations` that ever fall inside the storm's scope
/// (tropical-storm-force winds) over its whole advisory series — the §7.3
/// filter for regional networks ("more than 20 % of their PoPs in locations
/// contained in the scope of each event").
pub fn fraction_in_storm_scope(locations: &[GeoPoint], storm: Storm) -> f64 {
    fraction_hit(locations, storm, |f, p| f.in_scope(p))
}

/// Fraction of `locations` that ever fall inside *hurricane-force* winds —
/// the stricter §7.3 "PoPs in the path of the event" count (the paper finds
/// 86 Tier-1 PoPs for Irene, 8 for Katrina, 115 for Sandy).
pub fn fraction_in_hurricane_winds(locations: &[GeoPoint], storm: Storm) -> f64 {
    fraction_hit(locations, storm, |f, p| f.in_hurricane_winds(p))
}

fn fraction_hit(
    locations: &[GeoPoint],
    storm: Storm,
    hit: impl Fn(&ForecastRisk, GeoPoint) -> bool,
) -> f64 {
    if locations.is_empty() {
        return 0.0;
    }
    let advisories = advisories_for(storm);
    let fields: Vec<ForecastRisk> = advisories.iter().map(ForecastRisk::from_advisory).collect();
    let n = locations
        .iter()
        .filter(|&&p| fields.iter().any(|f| hit(f, p)))
        .count();
    n as f64 / locations.len() as f64
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::metric::{NodeRisk, RiskWeights};
    use riskroute_population::PopShares;
    use riskroute_topology::{NetworkKind, Pop};

    fn pop(name: &str, lat: f64, lon: f64) -> Pop {
        Pop {
            name: name.into(),
            location: GeoPoint::new(lat, lon).unwrap(),
        }
    }

    /// A Gulf-coast diamond: the southern PoP (New Orleans) sits in
    /// Katrina's path; the northern detour (Little Rock) does not.
    fn gulf_network() -> Network {
        Network::new(
            "gulf",
            NetworkKind::Regional,
            vec![
                pop("Houston", 29.76, -95.37),
                pop("Little Rock", 34.75, -92.29),
                pop("New Orleans", 29.95, -90.07),
                pop("Atlanta", 33.75, -84.39),
            ],
            vec![(0, 1), (1, 3), (0, 2), (2, 3)],
        )
        .unwrap()
    }

    fn base_planner(net: &Network) -> Planner {
        let n = net.pop_count();
        Planner::new(
            net,
            NodeRisk::new(vec![0.0; n], vec![0.0; n]),
            PopShares::from_shares(vec![1.0 / n as f64; n]),
            RiskWeights::PAPER,
        )
    }

    #[test]
    fn katrina_forces_detours_around_new_orleans() {
        let net = gulf_network();
        let replay = replay_storm(&base_planner(&net), &net, Storm::Katrina, 4).unwrap();
        assert_eq!(replay.storm, "KATRINA");
        assert!(!replay.ticks.is_empty());
        // Early advisories: storm far offshore, nothing in scope, ratio 0.
        let first = &replay.ticks[0];
        assert_eq!(first.pops_in_hurricane_winds, 0);
        assert!(first.report.risk_reduction_ratio.abs() < 1e-9);
        // At peak, New Orleans is inside hurricane winds and RiskRoute gains.
        let peak = replay.peak().unwrap();
        assert!(peak.pops_in_hurricane_winds >= 1);
        assert!(
            peak.report.risk_reduction_ratio > 0.05,
            "peak ratio {}",
            peak.report.risk_reduction_ratio
        );
        assert!(replay.max_pops_in_hurricane_winds() >= 1);
    }

    #[test]
    fn sandy_misses_the_gulf_network() {
        let net = gulf_network();
        let replay = replay_storm(&base_planner(&net), &net, Storm::Sandy, 6).unwrap();
        for t in &replay.ticks {
            assert_eq!(t.pops_in_hurricane_winds, 0, "{}", t.label);
            assert!(t.report.risk_reduction_ratio.abs() < 1e-9);
        }
    }

    #[test]
    fn stride_controls_tick_count() {
        let net = gulf_network();
        let p = base_planner(&net);
        let all = replay_storm(&p, &net, Storm::Katrina, 1).unwrap();
        assert_eq!(all.ticks.len(), 61);
        let sparse = replay_storm(&p, &net, Storm::Katrina, 10).unwrap();
        assert_eq!(sparse.ticks.len(), 7);
        assert_eq!(sparse.ticks[1].advisory, 11);
    }

    #[test]
    fn base_planner_is_not_mutated() {
        let net = gulf_network();
        let p = base_planner(&net);
        let _ = replay_storm(&p, &net, Storm::Katrina, 8).unwrap();
        assert_eq!(p.risk().forecast(2), 0.0, "replay works on a clone");
    }

    #[test]
    fn scope_fraction_flags_gulf_for_katrina_only() {
        let net = gulf_network();
        let locs: Vec<GeoPoint> = net.pops().iter().map(|p| p.location).collect();
        let katrina = fraction_in_storm_scope(&locs, Storm::Katrina);
        let sandy = fraction_in_storm_scope(&locs, Storm::Sandy);
        assert!(katrina >= 0.25, "katrina fraction {katrina}");
        assert_eq!(sandy, 0.0);
        assert_eq!(fraction_in_storm_scope(&[], Storm::Katrina), 0.0);
        // Hurricane-force winds are a strict subset of the scope.
        let hf = fraction_in_hurricane_winds(&locs, Storm::Katrina);
        assert!(hf <= katrina);
    }

    #[test]
    fn zero_stride_is_a_typed_error() {
        let net = gulf_network();
        let err = replay_storm(&base_planner(&net), &net, Storm::Katrina, 0).unwrap_err();
        assert!(
            matches!(&err, Error::InvalidArgument { context, .. } if context == "stride"),
            "got {err:?}"
        );
        let err = raw_advisories(Storm::Sandy, 0).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument { .. }));
        let err =
            replay_storm_proactive(&base_planner(&net), &net, Storm::Katrina, 0, 24.0).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument { .. }));
    }

    #[test]
    fn mismatched_locations_are_a_typed_error() {
        let net = gulf_network();
        let planner = base_planner(&net);
        let locs: Vec<GeoPoint> = net.pops().iter().take(2).map(|p| p.location).collect();
        let err =
            replay_raw_advisories(&planner, "gulf", &locs, "KATRINA", &[], &[], &[]).unwrap_err();
        assert!(
            matches!(&err, Error::InvalidArgument { context, .. } if context == "locations"),
            "got {err:?}"
        );
    }

    #[test]
    fn budgeted_replay_stops_and_resumes_bit_identically() {
        use crate::budget::StopReason;
        let net = gulf_network();
        let planner = base_planner(&net);
        let locs: Vec<GeoPoint> = net.pops().iter().map(|p| p.location).collect();
        let all: Vec<usize> = (0..net.pop_count()).collect();
        let raws = raw_advisories(Storm::Katrina, 2).unwrap();
        let clean =
            replay_raw_advisories(&planner, "gulf", &locs, "KATRINA", &raws, &all, &all).unwrap();
        // Stop after 5 ticks, then resume with the partial prefix.
        let budget = WorkBudget::unlimited().with_max_work(5);
        let run = replay_raw_advisories_budgeted(
            &planner,
            "gulf",
            &locs,
            "KATRINA",
            &raws,
            &all,
            &all,
            Vec::new(),
            &budget,
            |_| {},
        )
        .unwrap();
        let Budgeted::Partial { completed, stopped } = run else {
            panic!("5-unit budget must interrupt a {}-tick sweep", raws.len());
        };
        assert_eq!(stopped, StopReason::WorkExhausted);
        assert_eq!(completed.ticks.len(), 5);
        assert_eq!(completed.ticks[..], clean.ticks[..5], "consistent prefix");
        let resumed = replay_raw_advisories_budgeted(
            &planner,
            "gulf",
            &locs,
            "KATRINA",
            &raws,
            &all,
            &all,
            completed.ticks,
            &WorkBudget::unlimited(),
            |_| {},
        )
        .unwrap();
        let Budgeted::Complete(resumed) = resumed else {
            panic!("unlimited resume must complete");
        };
        assert_eq!(resumed, clean, "resume must be bit-identical");
    }

    #[test]
    fn batch_callback_fires_every_checkpoint_batch_ticks() {
        let net = gulf_network();
        let planner = base_planner(&net);
        let locs: Vec<GeoPoint> = net.pops().iter().map(|p| p.location).collect();
        let all: Vec<usize> = (0..net.pop_count()).collect();
        let raws = raw_advisories(Storm::Katrina, 3).unwrap();
        assert!(raws.len() > CHECKPOINT_BATCH);
        let mut seen = Vec::new();
        let _ = replay_raw_advisories_budgeted(
            &planner,
            "gulf",
            &locs,
            "KATRINA",
            &raws,
            &all,
            &all,
            Vec::new(),
            &WorkBudget::unlimited(),
            |replay| seen.push(replay.ticks.len()),
        )
        .unwrap();
        let expected: Vec<usize> = (1..=raws.len() / CHECKPOINT_BATCH)
            .map(|k| k * CHECKPOINT_BATCH)
            .collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn oversized_resume_state_is_rejected() {
        let net = gulf_network();
        let planner = base_planner(&net);
        let locs: Vec<GeoPoint> = net.pops().iter().map(|p| p.location).collect();
        let all: Vec<usize> = (0..net.pop_count()).collect();
        let raws = raw_advisories(Storm::Katrina, 2).unwrap();
        let clean =
            replay_raw_advisories(&planner, "gulf", &locs, "KATRINA", &raws, &all, &all).unwrap();
        let err = replay_raw_advisories_budgeted(
            &planner,
            "gulf",
            &locs,
            "KATRINA",
            &raws[..3],
            &all,
            &all,
            clean.ticks,
            &WorkBudget::unlimited(),
            |_| {},
        )
        .unwrap_err();
        assert!(
            matches!(&err, Error::InvalidArgument { context, .. } if context == "prior_ticks"),
            "got {err:?}"
        );
    }

    #[test]
    fn proactive_replay_reacts_before_reactive() {
        // With a 48 h lead, the Gulf diamond should see Katrina risk at an
        // earlier advisory than the live-field replay does.
        let net = gulf_network();
        let planner = base_planner(&net);
        let reactive = replay_storm(&planner, &net, Storm::Katrina, 1).unwrap();
        let proactive = replay_storm_proactive(&planner, &net, Storm::Katrina, 1, 48.0).unwrap();
        let first_reaction = |r: &DisasterReplay| {
            r.ticks
                .iter()
                .find(|t| t.report.risk_reduction_ratio > 1e-6)
                .map(|t| t.advisory)
        };
        let re = first_reaction(&reactive).expect("Katrina hits the gulf");
        let pro = first_reaction(&proactive).expect("projection sees it coming");
        assert!(
            pro < re,
            "proactive first reaction at advisory {pro}, reactive at {re}"
        );
    }

    #[test]
    fn proactive_with_zero_lead_tracks_reactive() {
        let net = gulf_network();
        let planner = base_planner(&net);
        let reactive = replay_storm(&planner, &net, Storm::Katrina, 1).unwrap();
        let proactive = replay_storm_proactive(&planner, &net, Storm::Katrina, 1, 0.0).unwrap();
        // Proactive at lead 0 sees the same fields one advisory later
        // (it starts at advisory 2); compare aligned ticks.
        for tick in &proactive.ticks {
            let matching = reactive
                .ticks
                .iter()
                .find(|t| t.advisory == tick.advisory)
                .expect("same advisory exists");
            assert_eq!(tick.pops_in_scope, matching.pops_in_scope);
            assert!(
                (tick.report.risk_reduction_ratio - matching.report.risk_reduction_ratio).abs()
                    < 1e-9
            );
        }
    }

    #[test]
    fn corrupted_advisories_degrade_without_changing_tick_count() {
        // The degraded-mode contract: a replay over a feed where 20% of the
        // advisory texts are garbled yields the same tick count as the clean
        // run, with exactly the corrupted ticks flagged degraded, historical-
        // only ratios on those ticks, and finite ratios throughout.
        let net = gulf_network();
        let planner = base_planner(&net);
        let locs: Vec<GeoPoint> = net.pops().iter().map(|p| p.location).collect();
        let all: Vec<usize> = (0..net.pop_count()).collect();
        let mut raws = raw_advisories(Storm::Katrina, 1).unwrap();
        assert_eq!(raws.len(), 61);
        let clean =
            replay_raw_advisories(&planner, "gulf", &locs, "KATRINA", &raws, &all, &all).unwrap();
        let mut corrupted = 0;
        for (i, raw) in raws.iter_mut().enumerate() {
            if i % 5 == 0 {
                raw.text = format!("...STATIC... {}", &raw.text[..raw.text.len().min(8)]);
                corrupted += 1;
            }
        }
        let dirty =
            replay_raw_advisories(&planner, "gulf", &locs, "KATRINA", &raws, &all, &all).unwrap();
        assert_eq!(dirty.ticks.len(), clean.ticks.len(), "no tick is dropped");
        assert_eq!(dirty.degraded_ticks(), corrupted);
        for (d, c) in dirty.ticks.iter().zip(&clean.ticks) {
            assert!(d.report.risk_reduction_ratio.is_finite());
            assert!(d.report.distance_increase_ratio.is_finite());
            if d.degraded {
                // Forecast dropped: this planner has zero historical risk, so
                // the degraded tick reverts to the zero-ratio baseline.
                assert_eq!(d.pops_in_scope, 0);
                assert!(d.report.risk_reduction_ratio.abs() < 1e-12);
            } else {
                assert_eq!(d.report, c.report, "clean ticks are untouched");
            }
        }
        assert_eq!(clean.degraded_ticks(), 0);
    }

    #[test]
    fn labels_carry_timestamps() {
        let net = gulf_network();
        let replay = replay_storm(&base_planner(&net), &net, Storm::Katrina, 20).unwrap();
        assert!(replay.ticks[0].label.contains("AUG"));
        assert!(replay.ticks[0].label.contains("2005"));
    }
}
