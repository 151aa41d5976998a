#!/usr/bin/env bash
# Full local CI gate: formatting, release build, the benchmark build, the
# whole test suite, clippy at -D warnings, and the seeded chaos suites
# (fault plans + kill/resume). Everything is deterministic (fixed seeds),
# so a red run replays exactly.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt (check) =="
# benchmark/ is a workspace of its own, so this leaves it alone.
cargo fmt --all -- --check

echo "== build (release) =="
cargo build --release --workspace

echo "== benchmark: builds against this tree =="
# The benchmark harness links the library crates by path; a library API
# break fails here instead of in the benchmark run.
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "== tests =="
cargo test --workspace -q

echo "== clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== docs (-D warnings) =="
# Broken or private intra-doc links fail here.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== obs: collector overhead guard (enabled vs disabled) =="
# A fixed ~2 s provisioning workload, run as 5 disabled/enabled pairs whose
# order alternates, so drift on a shared host lands on both sides. The
# disabled direction is branch-only by construction; this guards the
# *enabled* direction: the median per-pair enabled/disabled wall-clock
# ratio must stay within 10%.
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
wall_ms() {
  local s e
  s=$(date +%s%N)
  "$@" >/dev/null
  e=$(date +%s%N)
  echo $(( (e - s) / 1000000 ))
}
obs_off() { wall_ms target/release/riskroute provision Level3 -k 1; }
obs_on() {
  wall_ms target/release/riskroute \
    --metrics-out "$OBS_TMP/metrics.prom" --trace-out "$OBS_TMP/trace.jsonl" \
    provision Level3 -k 1
}
ratios=()
for pair in 1 2 3 4 5; do
  if [ $(( pair % 2 )) -eq 1 ]; then
    off_ms=$(obs_off); on_ms=$(obs_on)
  else
    on_ms=$(obs_on); off_ms=$(obs_off)
  fi
  ratios+=( $(( on_ms * 1000 / off_ms )) )
  echo "pair ${pair}: disabled ${off_ms} ms, enabled ${on_ms} ms"
done
median_permille=$(printf '%s\n' "${ratios[@]}" | sort -n | sed -n 3p)
echo "median enabled/disabled ratio ${median_permille}/1000"
# The exports must actually have been produced with real content.
grep -q 'riskroute_provision_rounds' "$OBS_TMP/metrics.prom"
grep -q '"type":"span"' "$OBS_TMP/trace.jsonl"
# The traced run carries request-scoped attribution: a trace line labeled
# with the command, and span events tagged with its trace ID.
grep -q '"type":"trace"' "$OBS_TMP/trace.jsonl"
grep -q '"label":"provision"' "$OBS_TMP/trace.jsonl"
if [ "$median_permille" -gt 1100 ]; then
  echo "FAIL: enabled-collector overhead exceeds 10% (median ratio ${median_permille}/1000)"
  exit 1
fi

echo "== obs: exposition lint + chrome trace export =="
# Every line the Prometheus exporter writes must survive the in-tree
# exposition lint (names, labels, cumulative buckets, +Inf, _count).
target/release/riskroute obs lint "$OBS_TMP/metrics.prom"
# The JSONL trace converts to Chrome trace-event JSON with real events.
target/release/riskroute obs trace "$OBS_TMP/trace.jsonl" --out "$OBS_TMP/trace.json"
grep -q '"traceEvents"' "$OBS_TMP/trace.json"
grep -q '"ph":"X"' "$OBS_TMP/trace.json"
# And the summary renders the per-trace attribution table from it.
target/release/riskroute obs-summary "$OBS_TMP/trace.jsonl" | grep -q 'per-trace attribution'

echo "== parallel: sequential/threaded equivalence suite =="
cargo test --release -q --test parallel_equivalence --test pool_properties

echo "== sssp engine: differential suite (kernel vs oracle, cache x workers) =="
cargo test --release -q --test sssp_differential

echo "== hazard kernel: differential suite (pruned vs oracle) =="
cargo test --release -q --test hazard_kernel_differential

echo "== scenario forks: sweep equivalence suite =="
cargo test --release -q --test scenario_equivalence

echo "== parallel: --threads 1 vs --threads 4 byte-for-byte =="
# Same fixed provisioning workload at both settings; the outputs must be
# byte-identical (the parallel reduction replays the sequential fold order).
target/release/riskroute provision Level3 -k 2 --threads 1 > "$OBS_TMP/prov-t1.txt"
target/release/riskroute provision Level3 -k 2 --threads 4 > "$OBS_TMP/prov-t4.txt"
diff "$OBS_TMP/prov-t1.txt" "$OBS_TMP/prov-t4.txt"
target/release/riskroute replay Telepak katrina --stride 4 --threads 1 > "$OBS_TMP/replay-t1.txt"
target/release/riskroute replay Telepak katrina --stride 4 --threads 4 > "$OBS_TMP/replay-t4.txt"
diff "$OBS_TMP/replay-t1.txt" "$OBS_TMP/replay-t4.txt"
# The full N-1 sweep on the 233-PoP paper topology fans scenario forks
# over the worker pool; the ranked report must not move by a byte.
target/release/riskroute sweep Level3 --mode n1 --threads 1 > "$OBS_TMP/sweep-t1.txt"
target/release/riskroute sweep Level3 --mode n1 --threads 4 > "$OBS_TMP/sweep-t4.txt"
diff "$OBS_TMP/sweep-t1.txt" "$OBS_TMP/sweep-t4.txt"
# The hazard ensemble is all forecast-only forks: clones of the base that
# read its distance trees as they are (distance trees depend on the
# topology alone; a rho-changing override mints only a cost stamp).
target/release/riskroute sweep Level3 --mode ensemble --samples 32 --seed 7 --threads 1 > "$OBS_TMP/ens-t1.txt"
target/release/riskroute sweep Level3 --mode ensemble --samples 32 --seed 7 --threads 4 > "$OBS_TMP/ens-t4.txt"
diff "$OBS_TMP/ens-t1.txt" "$OBS_TMP/ens-t4.txt"
# Sampled N-2 double failures: two chained forks per scenario.
target/release/riskroute sweep Level3 --mode n2 --samples 16 --seed 3 --threads 1 > "$OBS_TMP/n2-t1.txt"
target/release/riskroute sweep Level3 --mode n2 --samples 16 --seed 3 --threads 4 > "$OBS_TMP/n2-t4.txt"
diff "$OBS_TMP/n2-t1.txt" "$OBS_TMP/n2-t4.txt"
# A --max-work cut lands on the same tick at any worker count: both runs
# stop with exit 9 and print the same partial replay.
for t in 1 4; do
  cut_exit=0
  target/release/riskroute replay Telepak katrina --stride 4 --max-work 5 --threads "$t" \
    > "$OBS_TMP/replay-cut-t$t.txt" 2>/dev/null || cut_exit=$?
  if [ "$cut_exit" -ne 9 ]; then
    echo "FAIL: replay --max-work 5 --threads $t exited $cut_exit instead of 9"
    exit 1
  fi
done
diff "$OBS_TMP/replay-cut-t1.txt" "$OBS_TMP/replay-cut-t4.txt"
echo "threaded outputs are byte-identical"

echo "== sssp engine: cache vs --no-route-cache byte-for-byte =="
# The route-tree cache is exact: enabling it must not change a single byte
# of output, at any worker count.
target/release/riskroute provision Level3 -k 2 --threads 1 --no-route-cache > "$OBS_TMP/prov-nc1.txt"
diff "$OBS_TMP/prov-t1.txt" "$OBS_TMP/prov-nc1.txt"
target/release/riskroute provision Level3 -k 2 --threads 4 --no-route-cache > "$OBS_TMP/prov-nc4.txt"
diff "$OBS_TMP/prov-t4.txt" "$OBS_TMP/prov-nc4.txt"
target/release/riskroute replay Telepak katrina --stride 4 --threads 1 --no-route-cache > "$OBS_TMP/replay-nc1.txt"
diff "$OBS_TMP/replay-t1.txt" "$OBS_TMP/replay-nc1.txt"
target/release/riskroute replay Telepak katrina --stride 4 --threads 4 --no-route-cache > "$OBS_TMP/replay-nc4.txt"
diff "$OBS_TMP/replay-t4.txt" "$OBS_TMP/replay-nc4.txt"
target/release/riskroute sweep Level3 --mode ensemble --samples 32 --seed 7 --no-route-cache > "$OBS_TMP/ens-nc.txt"
diff "$OBS_TMP/ens-t1.txt" "$OBS_TMP/ens-nc.txt"
echo "cache-off outputs are byte-identical"

echo "== scale: seeded 10k-PoP synth smoke gate =="
# Generate a 10k-PoP synthetic network, then route on it and evaluate a
# sampled ratio report — the whole sequence must finish inside a wall
# budget generous enough for CI machines but tight enough to catch an
# accidental return to quadratic/naive paths.
scale_s=$(date +%s%N)
target/release/riskroute synth 10000 --seed 42 --out "$OBS_TMP/synth10k.graphml" \
  | grep -q '10000 PoPs'
target/release/riskroute --graphml "$OBS_TMP/synth10k.graphml" --name big \
  route big 0 9999 >/dev/null
target/release/riskroute --graphml "$OBS_TMP/synth10k.graphml" --name big \
  ratio big --sample 32 --seed 7 >/dev/null
scale_e=$(date +%s%N)
scale_ms=$(( (scale_e - scale_s) / 1000000 ))
echo "10k synth + route + sampled ratio in ${scale_ms} ms"
if [ "$scale_ms" -gt 120000 ]; then
  echo "FAIL: 10k-PoP smoke gate took ${scale_ms} ms (budget 120000 ms)"
  exit 1
fi

echo "== sssp engine: pair-query early exit, cache vs --no-route-cache byte-for-byte =="
# Pair sweeps stop each risk-tree run once its target settles and cache the
# pair's answer; the answers must not move a byte with the cache off, at
# any worker count, on the paper topology or the 10k synth.
for t in 1 4; do
  target/release/riskroute ratio Level3 --threads "$t" > "$OBS_TMP/ratio-t$t.txt"
  target/release/riskroute ratio Level3 --threads "$t" --no-route-cache > "$OBS_TMP/ratio-nc$t.txt"
  diff "$OBS_TMP/ratio-t$t.txt" "$OBS_TMP/ratio-nc$t.txt"
  target/release/riskroute --graphml "$OBS_TMP/synth10k.graphml" --name big \
    ratio big --sample 64 --seed 7 --threads "$t" > "$OBS_TMP/big-ratio-t$t.txt"
  target/release/riskroute --graphml "$OBS_TMP/synth10k.graphml" --name big \
    ratio big --sample 64 --seed 7 --threads "$t" --no-route-cache > "$OBS_TMP/big-ratio-nc$t.txt"
  diff "$OBS_TMP/big-ratio-t$t.txt" "$OBS_TMP/big-ratio-nc$t.txt"
done
diff "$OBS_TMP/ratio-t1.txt" "$OBS_TMP/ratio-t4.txt"
diff "$OBS_TMP/big-ratio-t1.txt" "$OBS_TMP/big-ratio-t4.txt"
echo "early-exit ratio outputs are byte-identical"

echo "== sssp engine: settles-must-shrink guard =="
# ratio Level3 is deterministic, so its settle count is exact;
# scripts/settles_baseline.txt records it as of goal-directed pair queries
# (each an A* on its target's lower-bound row that stops once the target
# settles; the count includes the distance trees and the row searches). A
# higher count means pair queries search more graph than they need. Any
# tie rerun (a query redone as plain Dijkstra) also fails: the paper
# topology has none.
target/release/riskroute ratio Level3 --metrics-out "$OBS_TMP/settles.prom" >/dev/null
settles=$(awk '$1 == "riskroute_risk_sssp_pops" { print $2 }' "$OBS_TMP/settles.prom")
settles_baseline=$(cat scripts/settles_baseline.txt)
echo "risk_sssp_pops ${settles} (baseline ${settles_baseline})"
if [ -z "$settles" ] || [ "$settles" -gt "$settles_baseline" ]; then
  echo "FAIL: risk_sssp_pops ${settles:-<missing>} exceeds baseline ${settles_baseline}"
  exit 1
fi
tie_reruns=$(awk '$1 == "riskroute_risk_sssp_tie_reruns" { print $2 }' "$OBS_TMP/settles.prom")
echo "risk_sssp_tie_reruns ${tie_reruns}"
if [ "$tie_reruns" != 0 ]; then
  echo "FAIL: ratio Level3 reran ${tie_reruns:-<missing>} pair queries (expected 0)"
  exit 1
fi

echo "== sssp engine: route-cache-bytes guard =="
# The same run's cache holds one pair answer per query, charged by path
# length; scripts/cache_bytes_baseline.txt records its size. A higher value
# means n-length trees came back into pair entries.
cache_bytes=$(awk '$1 == "riskroute_route_cache_bytes" { print $2 }' "$OBS_TMP/settles.prom")
cache_bytes_baseline=$(cat scripts/cache_bytes_baseline.txt)
echo "route_cache_bytes ${cache_bytes} (baseline ${cache_bytes_baseline})"
if [ -z "$cache_bytes" ] || [ "$cache_bytes" -gt "$cache_bytes_baseline" ]; then
  echo "FAIL: route_cache_bytes ${cache_bytes:-<missing>} exceeds baseline ${cache_bytes_baseline}"
  exit 1
fi

echo "== hazard kernel: terms-evaluated guard =="
# Building the planner sums Eq. 2's kernel over every (PoP, event) pair the
# cutoff keeps; route Level3 builds it once, deterministically, so the
# count is exact. scripts/kde_terms_baseline.txt records it as of the cut
# that follows the running sum's exponent. A higher count means the kernel
# evaluates terms that cannot move o_h.
target/release/riskroute route Level3 0 1 --metrics-out "$OBS_TMP/kde.prom" >/dev/null
kde_terms=$(awk '$1 == "riskroute_kde_terms_evaluated" { print $2 }' "$OBS_TMP/kde.prom")
kde_terms_baseline=$(cat scripts/kde_terms_baseline.txt)
echo "kde_terms_evaluated ${kde_terms} (baseline ${kde_terms_baseline})"
if [ -z "$kde_terms" ] || [ "$kde_terms" -gt "$kde_terms_baseline" ]; then
  echo "FAIL: kde_terms_evaluated ${kde_terms:-<missing>} exceeds baseline ${kde_terms_baseline}"
  exit 1
fi

echo "== sssp engine: replay-runs guard =="
# replay Telepak katrina is deterministic, so its kernel-search count is
# exact; scripts/replay_runs_baseline.txt records it as of distance trees
# keyed by topology. A higher count means a forecast change threw away
# distance trees (or anything else began to search more often).
target/release/riskroute replay Telepak katrina --metrics-out "$OBS_TMP/replay.prom" >/dev/null
replay_runs=$(awk '$1 == "riskroute_risk_sssp_runs" { print $2 }' "$OBS_TMP/replay.prom")
replay_runs_baseline=$(cat scripts/replay_runs_baseline.txt)
echo "replay risk_sssp_runs ${replay_runs} (baseline ${replay_runs_baseline})"
if [ -z "$replay_runs" ] || [ "$replay_runs" -gt "$replay_runs_baseline" ]; then
  echo "FAIL: replay risk_sssp_runs ${replay_runs:-<missing>} exceeds baseline ${replay_runs_baseline}"
  exit 1
fi

echo "== obs: tracing-on vs tracing-off byte-for-byte =="
# Request-scoped tracing must not move a byte of output, including under
# the parallel pool (worker threads inherit the dispatching scope).
target/release/riskroute provision Level3 -k 2 --threads 4 \
  --trace-out "$OBS_TMP/prov-trace.jsonl" > "$OBS_TMP/prov-traced.txt"
diff "$OBS_TMP/prov-t4.txt" "$OBS_TMP/prov-traced.txt"
target/release/riskroute replay Telepak katrina --stride 4 --threads 4 \
  --trace-out "$OBS_TMP/replay-trace.jsonl" > "$OBS_TMP/replay-traced.txt"
diff "$OBS_TMP/replay-t4.txt" "$OBS_TMP/replay-traced.txt"
echo "traced outputs are byte-identical"

echo "== sssp engine: sssp_runs regression guard =="
# The fixture provisioning workload is deterministic, so its SSSP-run count
# is exact; scripts/sssp_baseline.txt records the count at the time the
# route-tree cache landed. A higher count means a cache/invalidation
# regression (recompute the baseline deliberately if the workload changes).
target/release/riskroute provision Level3 -k 1 --metrics-out "$OBS_TMP/sssp.prom" >/dev/null
sssp_runs=$(awk '$1 == "riskroute_risk_sssp_runs" { print $2 }' "$OBS_TMP/sssp.prom")
sssp_baseline=$(cat scripts/sssp_baseline.txt)
echo "sssp_runs ${sssp_runs} (baseline ${sssp_baseline})"
if [ -z "$sssp_runs" ] || [ "$sssp_runs" -gt "$sssp_baseline" ]; then
  echo "FAIL: sssp_runs ${sssp_runs:-<missing>} exceeds baseline ${sssp_baseline}"
  exit 1
fi

echo "== experiments: paper artifacts byte-for-byte =="
# Every paper artifact that runs in at most ~10 s on a release build
# regenerates byte-identically to the committed results/ (fig4 also pins
# the binned KDE's output; table2, fig12 and ablations 1, 2 and 4 pin the
# goal-directed pair sweeps). The harness writes ./results/ under its
# working directory; timings.txt holds wall times.
(cd "$OBS_TMP" && "$OLDPWD/target/release/experiments" \
  table2 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig12 \
  ablation1 ablation2 ablation3 ablation4 ablation5 >/dev/null 2>&1)
regenerated=0
for f in "$OBS_TMP"/results/*.txt; do
  name=$(basename "$f")
  [ "$name" = timings.txt ] && continue
  diff "results/$name" "$f"
  regenerated=$(( regenerated + 1 ))
done
if [ "$regenerated" -ne 14 ]; then
  echo "FAIL: expected 14 regenerated artifacts, got ${regenerated}"
  exit 1
fi
echo "${regenerated} paper artifacts are byte-identical"

echo "== backup: ranked paths byte-for-byte =="
# Yen-ranked alternates re-evaluated under Eq. 1, on two Level3 pairs and
# one Telepak pair at -k 5; scripts/backup_golden.txt pins their bytes.
{
  target/release/riskroute backup Level3 0 100 -k 5
  target/release/riskroute backup Level3 17 201 -k 5
  target/release/riskroute backup Telepak 3 60 -k 5
} > "$OBS_TMP/backup.txt"
diff scripts/backup_golden.txt "$OBS_TMP/backup.txt"

echo "== budget: cut, checkpoint and resume byte-for-byte =="
# The budgeted jobs (provision, replay, sweep) cut by --max-work or
# --deadline-ms 0, resumed from their snapshots, a cut with no checkpoint,
# and a degraded-mode resume of a truncated snapshot. Each case runs in one
# fresh directory with relative snapshot paths (the path is printed), and
# scripts/budget_golden.txt pins its stdout, stderr, exit code and the bytes
# of every snapshot file after it (printed whole when they changed).
mkdir "$OBS_TMP/budget"
(
  cd "$OBS_TMP/budget"
  bin="$OLDPWD/target/release/riskroute"
  budget_case() {
    local code=0
    echo "\$ riskroute $*"
    "$bin" "$@" > out.txt 2> err.txt || code=$?
    echo "-- stdout"; cat out.txt
    echo "-- stderr"; cat err.txt
    echo "-- exit $code"
    for snap in *.snap; do
      [ -e "$snap" ] || continue
      if cmp -s "$snap" "prev/$snap"; then
        echo "-- file $snap unchanged"
      else
        echo "-- file $snap"; cat "$snap"; cp "$snap" "prev/$snap"
      fi
    done
  }
  mkdir prev
  budget_case provision Sprint -k 2 --max-work 5 --checkpoint p.snap
  budget_case resume p.snap
  budget_case replay Telepak katrina --stride 4 --max-work 5 --checkpoint r.snap
  head -n 2 r.snap > t.snap
  budget_case resume r.snap
  budget_case sweep Telepak --mode n1 --max-work 3 --checkpoint s.snap
  budget_case resume s.snap
  budget_case provision Sprint -k 2 --deadline-ms 0 --checkpoint d.snap
  budget_case sweep Telepak --mode n2 --samples 40 --seed 7 --max-work 9
  budget_case resume t.snap
) > "$OBS_TMP/budget.txt"
diff scripts/budget_golden.txt "$OBS_TMP/budget.txt"

echo "== chaos: fault plans (seeds 42..49) =="
cargo test --release -p riskroute-repro -q --test chaos ci_fault_plans_hold_every_invariant

echo "== chaos: kill/resume crash-consistency (seeds 0..4, sweep leg 0..3) =="
cargo test --release -p riskroute-repro -q --test chaos kill_resume -- --nocapture

echo "== cli: usage-error exit codes =="
# A value-taking flag with no value is a usage error, not a silent default.
usage_exit=0
target/release/riskroute provision Telepak -k >/dev/null 2>&1 || usage_exit=$?
if [ "$usage_exit" -ne 2 ]; then
  echo "FAIL: provision Telepak -k exited $usage_exit instead of 2"
  exit 1
fi

echo "== sssp engine: the reference oracle is test-only =="
# routing::risk_sssp is the differential oracle; every production SSSP runs
# through engine::sssp. No crate source outside routing.rs may call it.
oracle_callers=$(grep -rl 'risk_sssp(' crates/*/src | grep -vx 'crates/core/src/routing.rs' || true)
if [ -n "$oracle_callers" ]; then
  echo "FAIL: risk_sssp( called outside crates/core/src/routing.rs:"
  echo "$oracle_callers"
  exit 1
fi

echo "== cli: degenerate import exit codes =="
# A two-PoP map with no links imports fine but has no connected pair:
# ospf must report that as exit 6 (no informative pairs), not panic (101).
cat > "$OBS_TMP/two.graphml" <<'GRAPHML'
<?xml version="1.0" encoding="UTF-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="lat" for="node" attr.name="Latitude" attr.type="double"/>
  <key id="lon" for="node" attr.name="Longitude" attr.type="double"/>
  <key id="lab" for="node" attr.name="label" attr.type="string"/>
  <graph edgedefault="undirected">
    <node id="0"><data key="lab">A</data><data key="lat">32.78</data><data key="lon">-96.80</data></node>
    <node id="1"><data key="lab">B</data><data key="lat">30.27</data><data key="lon">-97.74</data></node>
  </graph>
</graphml>
GRAPHML
two_exit=0
target/release/riskroute --graphml "$OBS_TMP/two.graphml" --name Two ospf Two \
  >/dev/null 2>&1 || two_exit=$?
if [ "$two_exit" -ne 6 ]; then
  echo "FAIL: ospf on a two-PoP, zero-link import exited $two_exit instead of 6"
  exit 1
fi

echo "== serve: warm-daemon smoke gate =="
# Spawn the daemon on an ephemeral port with a tiny connection cap (so the
# overload path is deterministically reachable below). It announces the
# resolved address on stdout before the accept loop starts.
target/release/riskroute serve --listen 127.0.0.1:0 --max-connections 2 \
  > "$OBS_TMP/serve.log" 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$OBS_TMP"' EXIT
SERVE_ADDR=
for _ in $(seq 1 100); do
  SERVE_ADDR=$(awk '/^listening on /{ print $3; exit }' "$OBS_TMP/serve.log")
  [ -n "$SERVE_ADDR" ] && break
  sleep 0.1
done
if [ -z "$SERVE_ADDR" ]; then
  echo "FAIL: daemon never announced its listen address"
  cat "$OBS_TMP/serve.log"
  exit 1
fi
echo "daemon at $SERVE_ADDR"
SERVE_HOST=${SERVE_ADDR%:*}
SERVE_PORT=${SERVE_ADDR##*:}
serve_query() {  # one NDJSON request line in, the one-line answer out
  exec 9<>"/dev/tcp/$SERVE_HOST/$SERVE_PORT"
  printf '%s\n' "$1" >&9
  IFS= read -r serve_reply <&9
  exec 9<&- 9>&-
  printf '%s\n' "$serve_reply"
}
# Mixed batch: valid queries, a malformed frame, an unknown op. Every line
# gets a typed one-line answer and the daemon stays up throughout.
serve_query '{"op":"ping"}'                        | grep -q '"output":"pong"'
serve_query '{"id":1,"op":"ratio","network":"Telepak"}' | grep -q '"status":"ok"'
serve_query '{"op":"route","network":"Sprint","src":"0","dst":"5"}' | grep -q '"status":"ok"'
serve_query '{ not json'                           | grep -q '"kind":"malformed-frame"'
serve_query '{"op":"no-such-op"}'                  | grep -q '"kind":"bad-request"'
# argv and serve share one decoder: a negative lambda and an unknown field
# are bad requests (exit 2), and a bad-request reply carries no CLI usage
# text, so it stays one short line.
serve_query '{"op":"route","network":"Sprint","src":"0","dst":"5","lambda_h":-5}' \
  | grep -q '"kind":"bad-request"'
serve_query '{"op":"route","network":"Sprint","src":"0","dst":"5","bogus":1}' \
  | grep -q '"kind":"bad-request"'
# A count that sizes up-front work is capped by the decoder: a 10^12-pair
# sample is a bad request, not an allocation abort, and the daemon keeps
# serving.
serve_query '{"op":"ratio","network":"Sprint","sample":1000000000000}' \
  | grep -q '"kind":"bad-request"'
serve_query '{"op":"ping"}' | grep -q '"output":"pong"'
bad_reply_bytes=$(serve_query '{"op":"no-such-op"}' | wc -c)
if [ "$bad_reply_bytes" -ge 1024 ]; then
  echo "FAIL: bad-request reply is $bad_reply_bytes bytes (limit 1024)"
  exit 1
fi
# Overload: two held connections fill --max-connections 2 (the answered
# pings prove both slots are admitted); the third connect is refused with
# an overloaded line and a retry hint, not a hang or a dropped socket.
exec 7<>"/dev/tcp/$SERVE_HOST/$SERVE_PORT"
printf '%s\n' '{"op":"ping"}' >&7
IFS= read -r _ <&7
exec 8<>"/dev/tcp/$SERVE_HOST/$SERVE_PORT"
printf '%s\n' '{"op":"ping"}' >&8
IFS= read -r _ <&8
serve_query '{"op":"ping"}' | grep -q '"status":"overloaded"'
exec 7<&- 7>&- 8<&- 8>&-
# The freed slots come back within the read tick; then a Prometheus scrape
# on the same listener must report the counters the batch just drove.
SERVE_RECOVERED=
for _ in $(seq 1 50); do
  if serve_query '{"op":"ping"}' | grep -q '"output":"pong"'; then
    SERVE_RECOVERED=1
    break
  fi
  sleep 0.1
done
[ -n "$SERVE_RECOVERED" ] || { echo "FAIL: daemon did not recover after overload"; exit 1; }
exec 9<>"/dev/tcp/$SERVE_HOST/$SERVE_PORT"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&9
cat <&9 > "$OBS_TMP/serve-metrics.txt"
exec 9<&- 9>&-
grep -q 'riskroute_serve_requests_total' "$OBS_TMP/serve-metrics.txt"
grep -q 'riskroute_serve_frames_malformed' "$OBS_TMP/serve-metrics.txt"
grep -q 'riskroute_serve_connections_rejected' "$OBS_TMP/serve-metrics.txt"
grep -q 'riskroute_route_cache_bytes' "$OBS_TMP/serve-metrics.txt"
grep -q 'riskroute_route_cache_entries' "$OBS_TMP/serve-metrics.txt"
# Protocol shutdown: acknowledged with a draining line, then the process
# must drain cleanly (exit 0; a forced drain exits 10 and fails the gate).
serve_query '{"op":"shutdown"}' | grep -q '"status":"draining"'
SERVE_EXIT=0
wait "$SERVE_PID" || SERVE_EXIT=$?
trap 'rm -rf "$OBS_TMP"' EXIT
if [ "$SERVE_EXIT" -ne 0 ]; then
  echo "FAIL: serve exited $SERVE_EXIT instead of draining cleanly"
  cat "$OBS_TMP/serve.log"
  exit 1
fi
grep -q 'drained cleanly' "$OBS_TMP/serve.log"
echo "serve daemon drained cleanly"

echo "CI gate passed."
