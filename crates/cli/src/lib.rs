//! Implementation of the `riskroute` command-line tool.
//!
//! Every subcommand is a pure function from parsed arguments to an output
//! string, so the whole surface is unit-testable without spawning
//! processes; `main.rs` only does I/O.
//!
//! ```text
//! riskroute corpus                                # list the 23 networks
//! riskroute route Sprint "Seattle" "Miami"        # bit-risk vs shortest
//! riskroute backup Sprint "Seattle" "Miami" -k 3  # ranked alternates
//! riskroute provision Sprint -k 5                 # best new links
//! riskroute replay Telepak katrina                # advisory replay
//! riskroute provision Level3 --deadline-ms 500 --checkpoint snap.txt
//! riskroute resume snap.txt                       # continue, bit-identically
//! riskroute critical "Deutsche Telekom"           # criticality ranking
//! riskroute failure Telepak katrina               # failure injection
//! riskroute export Sprint                         # topology as JSON
//! riskroute --graphml map.graphml --name MyNet route MyNet 0 5
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

pub use args::{parse_args, Cli, CliError, Command};

use riskroute::prelude::*;
use riskroute_hazard::HistoricalRisk;
use riskroute_topology::import::network_from_graphml;
use riskroute_topology::{Network, NetworkKind};

/// Seed and substrate sizes the CLI uses (documented in `--help`).
pub const CLI_SEED: u64 = 42;
const CLI_BLOCKS: usize = 20_000;
const CLI_EVENT_CAP: usize = 3_000;

/// Everything a command needs: corpus (plus any imported networks),
/// population, and hazards.
pub struct CliContext {
    /// The standard 23-network corpus.
    pub corpus: Corpus,
    /// Networks imported from GraphML files.
    pub imported: Vec<Network>,
    /// Census model.
    pub population: PopulationModel,
    /// Hazard model.
    pub hazards: HistoricalRisk,
    /// Worker-count knob applied to every planner the context hands out
    /// (`--threads`; byte-identical output at any setting).
    pub parallelism: Parallelism,
    /// Route-tree cache knob applied to every planner the context hands
    /// out (`--no-route-cache` clears it; byte-identical output either way).
    pub route_cache: bool,
    /// Warm engine pool keyed by `(network, weights)`. One-shot commands
    /// build at most one entry; the `serve` daemon reuses entries across
    /// requests, which is its whole point.
    pub pool: PlannerPool,
}

impl CliContext {
    /// Build the context, importing any GraphML files requested.
    ///
    /// # Errors
    /// [`CliError::Io`] when a file cannot be read, [`CliError::Core`]
    /// (import family) when its contents do not parse.
    pub fn build(graphml: &[(String, String)]) -> Result<Self, CliError> {
        let mut imported = Vec::new();
        for (path, name) in graphml {
            let xml = std::fs::read_to_string(path)
                .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
            let net = network_from_graphml(&xml, name, NetworkKind::Regional)
                .map_err(riskroute::Error::from)?;
            imported.push(net);
        }
        Ok(CliContext {
            corpus: Corpus::standard(CLI_SEED),
            imported,
            population: PopulationModel::synthesize(CLI_SEED, CLI_BLOCKS),
            hazards: HistoricalRisk::standard(CLI_SEED, Some(CLI_EVENT_CAP)),
            parallelism: Parallelism::Sequential,
            route_cache: true,
            pool: PlannerPool::new(),
        })
    }

    /// Look up a network by name: imported networks shadow corpus members.
    ///
    /// # Errors
    /// [`CliError::Unknown`] listing the available names.
    pub fn network(&self, name: &str) -> Result<&Network, CliError> {
        self.imported
            .iter()
            .find(|n| n.name() == name)
            .or_else(|| self.corpus.network(name))
            .ok_or_else(|| {
                let mut names: Vec<&str> = self
                    .imported
                    .iter()
                    .map(Network::name)
                    .chain(self.corpus.all_networks().map(Network::name))
                    .collect();
                names.sort_unstable();
                CliError::Unknown(format!(
                    "unknown network {name:?}; available: {}",
                    names.join(", ")
                ))
            })
    }

    /// Planner for a network at the given weights, carrying the context's
    /// parallelism knob. Pulled from the warm pool (built on first use);
    /// pooled reuse is byte-identical to a cold build because the shared
    /// route-tree cache is stamp-keyed and exact.
    pub fn planner(&self, net: &Network, weights: RiskWeights) -> Planner {
        self.pool
            .planner_for(net.name(), weights, || {
                Planner::for_network(net, &self.population, &self.hazards, weights)
            })
            .with_parallelism(self.parallelism)
            .with_route_cache(self.route_cache)
    }
}

/// Resolve a PoP selector: an index (`"12"`) or a case-insensitive name
/// substring (`"new orle"`); substring matches must be unique.
///
/// # Errors
/// [`CliError::Unknown`] when nothing (or more than one PoP) matches.
pub fn resolve_pop(net: &Network, selector: &str) -> Result<usize, CliError> {
    if let Ok(idx) = selector.parse::<usize>() {
        return if idx < net.pop_count() {
            Ok(idx)
        } else {
            Err(CliError::Unknown(format!(
                "PoP index {idx} out of range ({} has {} PoPs)",
                net.name(),
                net.pop_count()
            )))
        };
    }
    let needle = selector.to_lowercase();
    let matches: Vec<usize> = net
        .pops()
        .iter()
        .enumerate()
        .filter(|(_, p)| p.name.to_lowercase().contains(&needle))
        .map(|(i, _)| i)
        .collect();
    match matches.as_slice() {
        [one] => Ok(*one),
        [] => Err(CliError::Unknown(format!(
            "no PoP of {} matches {selector:?}",
            net.name()
        ))),
        many => Err(CliError::Unknown(format!(
            "{selector:?} is ambiguous in {}: {}",
            net.name(),
            many.iter()
                .map(|&i| net.pops()[i].name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        ))),
    }
}

/// Parse a storm name.
///
/// # Errors
/// [`CliError::Unknown`] for anything but katrina, irene, sandy.
pub fn resolve_storm(name: &str) -> Result<Storm, CliError> {
    match name.to_lowercase().as_str() {
        "katrina" => Ok(Storm::Katrina),
        "irene" => Ok(Storm::Irene),
        "sandy" => Ok(Storm::Sandy),
        other => Err(CliError::Unknown(format!(
            "unknown storm {other:?}; expected katrina, irene, or sandy"
        ))),
    }
}

/// Run a parsed CLI invocation to an output string.
///
/// When `--metrics-out` / `--trace-out` is given, the global collector is
/// enabled around the command and a snapshot is exported afterwards —
/// including on failure, so a budget-exhausted run (exit 9) still leaves
/// its metrics behind. An export failure surfaces as [`CliError::Io`] only
/// when the command itself succeeded; it never masks the command's error.
///
/// # Errors
/// A [`CliError`] whose family determines the process exit code
/// (see [`CliError::exit_code`]).
pub fn run(cli: &Cli) -> Result<String, CliError> {
    if !cli.obs.wants_collection() {
        return run_command(cli);
    }
    riskroute_obs::reset();
    riskroute_obs::enable();
    // One trace per invocation, labeled with the command name, so the
    // exported JSONL attributes every counter and span to this run.
    let scope = riskroute_obs::ObsScope::begin(cli.command.name());
    let result = {
        let _obs = scope.enter();
        run_command(cli)
    };
    riskroute_obs::disable();
    let snap = riskroute_obs::snapshot();
    let mut export_error: Option<CliError> = None;
    let outputs = [
        (&cli.obs.trace_out, riskroute_obs::export::to_jsonl(&snap)),
        (&cli.obs.metrics_out, riskroute_obs::export::to_prometheus(&snap)),
    ];
    for (path, payload) in &outputs {
        if let Some(path) = path {
            if let Err(e) = riskroute_obs::export::write_atomic(path, payload) {
                export_error.get_or_insert(CliError::Io(format!("cannot write {path}: {e}")));
            }
        }
    }
    match (result, export_error) {
        (Ok(_), Some(err)) => Err(err),
        (result, _) => result,
    }
}

fn run_command(cli: &Cli) -> Result<String, CliError> {
    // The chaos harness builds its own faulted substrates per plan; it does
    // not need (and must not share) the CLI context. The obs commands only
    // read files.
    match &cli.command {
        Command::Chaos { plans, seed } => return commands::chaos(*plans, *seed),
        Command::ObsSummary { path } => return commands::obs_summary(path),
        Command::ObsTrace { path, out } => return commands::obs_trace(path, out),
        Command::ObsLint { path } => return commands::obs_lint(path),
        _ => {}
    }
    let mut ctx = CliContext::build(&cli.graphml)?;
    ctx.parallelism = cli.threads;
    ctx.route_cache = cli.route_cache;
    match &cli.command {
        // The daemon keeps the context for its whole life.
        Command::Serve { .. } => commands::serve(ctx, &cli.command, cli.weights()),
        command => commands::execute(&ctx, command, cli.weights(), cli.obs.progress),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_pop_by_index_and_name() {
        let ctx = CliContext::build(&[]).unwrap();
        let net = ctx.network("Deutsche Telekom").unwrap();
        assert_eq!(resolve_pop(net, "0").unwrap(), 0);
        assert!(resolve_pop(net, "999").is_err());
        // Every PoP resolves by its own full name.
        for (i, p) in net.pops().iter().enumerate() {
            assert_eq!(resolve_pop(net, &p.name).unwrap(), i, "{}", p.name);
        }
        assert!(resolve_pop(net, "zzz-nowhere").is_err());
    }

    #[test]
    fn resolve_storm_accepts_any_case() {
        assert_eq!(resolve_storm("Katrina").unwrap(), Storm::Katrina);
        assert_eq!(resolve_storm("SANDY").unwrap(), Storm::Sandy);
        assert!(resolve_storm("bob").is_err());
    }

    #[test]
    fn unknown_network_lists_alternatives() {
        let ctx = CliContext::build(&[]).unwrap();
        let err = ctx.network("Nope").unwrap_err();
        assert_eq!(err.exit_code(), 3);
        let text = err.to_string();
        assert!(text.contains("Level3"));
        assert!(text.contains("Telepak"));
    }

    #[test]
    fn selector_failures_are_unknown_family() {
        let ctx = CliContext::build(&[]).unwrap();
        let net = ctx.network("Sprint").unwrap();
        assert!(matches!(
            resolve_pop(net, "999"),
            Err(CliError::Unknown(_))
        ));
        assert!(matches!(resolve_storm("bob"), Err(CliError::Unknown(_))));
    }

    #[test]
    fn missing_graphml_file_is_io_family() {
        let Err(err) = CliContext::build(&[("/no/such/file.graphml".into(), "X".into())])
        else {
            panic!("expected an I/O error")
        };
        assert!(matches!(err, CliError::Io(_)));
        assert_eq!(err.exit_code(), 4);
    }

    #[test]
    fn bad_graphml_content_is_parse_family() {
        let dir = std::env::temp_dir().join("riskroute-cli-badxml");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.graphml");
        std::fs::write(&path, "<graphml><graph></graph>").unwrap();
        let Err(err) = CliContext::build(&[(path.display().to_string(), "X".into())]) else {
            panic!("expected an import error")
        };
        assert!(matches!(err, CliError::Core(riskroute::Error::Import(_))));
        assert_eq!(err.exit_code(), 5);
    }
}
