# Developer entry points. `make check` is the one-stop gate: full build,
# test suite, the perf smoke, bounded fault-injection, multi-core co-run,
# open-loop serve, tiered-storage warm-restart, sharded-cluster and
# live-timeline/alerting smokes (all under timeouts so a hung pool cannot
# wedge CI), and the diff gate comparing each smoke report against its
# committed baseline snapshot.

SMOKE_TIMEOUT ?= 900
JOBS ?= 4

.PHONY: all build test smoke faults-smoke corun-smoke serve-smoke bench-serve tier-smoke cluster-smoke watch-smoke diff-gate check clean

all: build

build:
	dune build

test:
	dune runtest

smoke: build
	timeout $(SMOKE_TIMEOUT) dune exec bench/main.exe -- --perf-smoke --jobs $(JOBS)

# Small fixed-seed campaign: one benchmark, two rates, all protections.
# Exercises the injector, protection paths, and the resilience report
# end to end in a few seconds; the report is uploaded as a CI artifact.
faults-smoke: build
	timeout $(SMOKE_TIMEOUT) dune exec bin/axmemo_cli.exe -- faults \
	  -b fft --sample --seed 1234 --rates 1e-3,1e-2 --jobs $(JOBS) \
	  --quiet --metrics FAULTS_SMOKE.json

# Small fixed-seed co-run matrix: two-workload mix over 1 and 2 cores, all
# partitioning policies, fanned over the pool. Exercises the shared LUT,
# arbitration, the scheduler and the bounded report (the 1-node cluster
# layout) end to end; the report is uploaded as a CI artifact.
corun-smoke: build
	timeout $(SMOKE_TIMEOUT) dune exec bin/axmemo_cli.exe -- corun \
	  -b blackscholes,sobel --sample --seed 1234 --cores 1,2 --requests 8 \
	  --jobs $(JOBS) --quiet --metrics CORUN_SMOKE.json

# Small fixed-seed open-loop service matrix: Poisson arrivals at two loads
# over 1 and 2 cores into a bounded drop-tail queue. Exercises arrival
# generation, the open dispatcher, shedding, the latency histograms, the
# SLO accounting and the "service" report section end to end; --wall adds
# the per-run simulator wall time so the gate also watches serve-path
# throughput (with a loose tolerance).
serve-smoke: build
	timeout $(SMOKE_TIMEOUT) dune exec bin/axmemo_cli.exe -- serve \
	  -b blackscholes,sobel --sample --seed 1234 --cores 1,2 --requests 24 \
	  --partition ffa --arrival poisson --load 0.8,2 --queue 4 \
	  --jobs $(JOBS) --wall --quiet --metrics SERVE_SMOKE.json

# The offered-load ramp (bench experiment): saturation sweep over cores and
# partition policies; writes BENCH_SERVE.json with no wall-clock fields, so
# its gate is exact.
bench-serve: build
	timeout $(SMOKE_TIMEOUT) dune exec bench/main.exe -- serve --jobs $(JOBS)

# Warm-restart smoke (bench experiment): a closed co-run with small SRAM
# LUTs spills into the DRAM L3 tier, its LUT state is captured into
# TIER_SNAPSHOT.axs, and a cold vs warm open-loop serve pair is compared on
# the first-window hit rate (the experiment exits nonzero if warm does not
# beat cold). Writes TIER_SMOKE.json with no wall-clock fields, so its gate
# is exact.
tier-smoke: build
	timeout $(SMOKE_TIMEOUT) dune exec bench/main.exe -- tier --jobs $(JOBS)

# Sharded-cluster smoke (bench experiment): the 1/2/4-node scale-out curve
# on the blackscholes+sobel mix plus a kmeans directory-vs-broadcast twin.
# The experiment exits nonzero unless 2 nodes out-serve 1 node, the
# directory sends strictly fewer invalidation messages than the flat
# per-core broadcast fan-out, and the report is byte-identical between
# serial and parallel matrices. Writes CLUSTER_SMOKE.json with no
# wall-clock fields, so its gate is exact.
cluster-smoke: build
	timeout $(SMOKE_TIMEOUT) dune exec bench/main.exe -- cluster --jobs $(JOBS)

# Live-timeline smoke (bench experiment): the blackscholes+sobel mix at
# loads 0.5 and 2.0 with --watch on. The experiment exits nonzero unless
# every run's per-window deltas sum exactly to its end-of-run service
# aggregates, the SLO burn-rate alert fires at load 2 and stays quiet at
# load 0.5, and the report — timeline and alert sections included — is
# byte-identical between serial and parallel matrices. Writes
# WATCH_SMOKE.json with no wall-clock fields, so its gate is exact.
watch-smoke: build
	timeout $(SMOKE_TIMEOUT) dune exec bench/main.exe -- watch --jobs $(JOBS)

# Regression gate: every metric in the fresh smoke reports must match the
# committed baseline exactly (the simulator is deterministic), with one
# exception: summary.sim_wall_seconds is host wall clock, so it carries a
# loose tolerance — wide enough not to flap on machine noise, tight enough
# to catch an order-of-magnitude simulator-throughput regression. `diff`
# flattens only each report's runs[]; the reports with no wall-clock field
# are also compared byte for byte, which gates their top-level cluster
# and saturation arrays (way ranges, shadow hits, coherence counts,
# schedule heads, saturation points). The perf smoke also writes
# one report per execution backend with the wall-clock metric left out;
# the smoke already fails on divergence, and the closing cmp re-checks the
# two artifacts byte for byte so a report-writing bug cannot mask a backend
# mismatch. The fresh reports are build outputs (gitignored);
# bench/baselines/ holds the one committed copy. A legitimate perf or model
# change updates the snapshot in the same PR:
#   cp $(WALL_REPORTS) $(EXACT_REPORTS) bench/baselines/
WALL_REPORTS = BENCH_PR1.json SERVE_SMOKE.json
EXACT_REPORTS = BENCH_SERVE.json CLUSTER_SMOKE.json CORUN_SMOKE.json \
  FAULTS_SMOKE.json TIER_SMOKE.json WATCH_SMOKE.json

diff-gate: smoke faults-smoke corun-smoke serve-smoke bench-serve tier-smoke cluster-smoke watch-smoke
	for f in $(WALL_REPORTS); do \
	  dune exec bin/axmemo_cli.exe -- diff bench/baselines/$$f $$f \
	    --tol "summary.sim_wall_seconds=3:0.5" --gate --quiet || exit 1; \
	done
	for f in $(EXACT_REPORTS); do \
	  dune exec bin/axmemo_cli.exe -- diff bench/baselines/$$f $$f --gate --quiet || exit 1; \
	  cmp bench/baselines/$$f $$f || exit 1; \
	done
	cmp BENCH_PR1.compiled.json BENCH_PR1.interp.json

check: build test diff-gate

clean:
	dune clean
