.PHONY: all build check test test-props portfolio bench bench-smoke bench-gate \
	scale-smoke resume-smoke serve-smoke examples lint clean

all: build

build:
	dune build @all

check:
	dune build @all && dune runtest && $(MAKE) portfolio

# Racing-portfolio property sweep at a deeper iteration count: seed
# validity on every mesh shape, race dominance over its seeds,
# NOCMAP_JOBS invariance, and kill-at-random-point resume identity.
# NOCMAP_PROP_MULT scales it further in the props CI matrix.
portfolio:
	NOCMAP_PROP_MULT=$${NOCMAP_PROP_MULT:-5} dune exec test/test_main.exe -- test portfolio

test:
	dune runtest

# Deep property soak: every QCheck property runs with its iteration
# count multiplied by NOCMAP_PROP_MULT (default 20x here).  `dune
# runtest` pins QCHECK_SEED (test/dune); the soak instead replays
# QCHECK_SEED from the environment when it is set, and otherwise draws
# a fresh seed and prints it first ("qcheck random seed: N"), so every
# run explores new cases and a failure can be replayed from its log.
test-props:
	NOCMAP_PROP_MULT=$${NOCMAP_PROP_MULT:-20} dune exec test/test_main.exe

# Full reproduction harness: every figure/table plus BENCH_nocmap.json.
bench:
	dune exec bench/main.exe

# Quick pass of the same harness (small search budgets, short measurement
# windows); still emits BENCH_nocmap.json.
bench-smoke:
	NOCMAP_BENCH_BUDGET=quick dune exec bench/main.exe

# Regression gate: stash the committed baseline, regenerate the quick
# benchmark, then compare each key as bench/main.ml declares it: work
# counts over fixed call streams (simulator events, cutoff truncations,
# incremental simulations, journal appends and bytes) exactly in their
# direction, the metrics-tax word count and the scale cost ratio under
# ceilings, the deterministic search ratios within 15%, the bit-identity
# booleans true; wall-clock keys are reported only.  Exit 1 on
# regression, exit 2 on a missing, malformed or undeclared key.  To
# refresh the baseline intentionally: run `make bench-smoke` and commit
# BENCH_nocmap.json.
bench-gate:
	cp BENCH_nocmap.json BENCH_baseline.json
	NOCMAP_BENCH_BUDGET=quick dune exec bench/main.exe
	dune exec bench/main.exe -- --compare BENCH_baseline.json BENCH_nocmap.json

# Scale wall smoke: a reduced 64-tile decompose end to end through the
# CLI (gen -> map --algorithm decompose on an 8x8 mesh, partition report
# required in the output, and a --jobs 1 rerun byte-identical to the
# default run, which honours NOCMAP_JOBS), then the large-mesh profiling suite
# (NOCMAP_BENCH_BUDGET=scale writes SCALE_profile.csv, SCALE_heatmap.csv
# and BENCH_nocmap.json) and the regression gate over the committed
# baseline — the scale run writes the same declared keys as the quick
# one, so the scale_* keys, decompose_vs_flat_quality and the work
# counts are gated like any other.  To refresh the baseline
# intentionally: run `make bench-smoke` and commit BENCH_nocmap.json.
SCALE_DIR := _build/scale-smoke
scale-smoke:
	dune build bin/nocmap_cli.exe bench/main.exe
	rm -rf $(SCALE_DIR) && mkdir -p $(SCALE_DIR)
	./_build/default/bin/nocmap_cli.exe gen --cores 60 --packets 480 \
		--bits 6000000 --seed 20 -o $(SCALE_DIR)/app64.cdcg
	./_build/default/bin/nocmap_cli.exe map --noc 8x8 \
		--app $(SCALE_DIR)/app64.cdcg --model cwm --algorithm decompose \
		--seed 7 > $(SCALE_DIR)/map.txt
	grep -q "^decompose   : " $(SCALE_DIR)/map.txt
	./_build/default/bin/nocmap_cli.exe map --noc 8x8 \
		--app $(SCALE_DIR)/app64.cdcg --model cwm --algorithm decompose \
		--seed 7 --jobs 1 > $(SCALE_DIR)/map-jobs1.txt
	cmp $(SCALE_DIR)/map.txt $(SCALE_DIR)/map-jobs1.txt
	cp BENCH_nocmap.json BENCH_baseline.json
	NOCMAP_BENCH_BUDGET=scale dune exec bench/main.exe
	dune exec bench/main.exe -- --compare BENCH_baseline.json BENCH_nocmap.json
	@echo "scale-smoke: decompose end-to-end and scale gate passed"

# Crash-safety smoke: start a checkpointed table2, kill it mid-run with
# SIGINT, resume from the journal, and require the resumed table to be
# byte-identical to an uninterrupted run; then the same for a parallel
# CDCM portfolio `map`, a fault campaign (two restarts journaling on
# the pool at once, then one memo shard per scenario) and a parallel
# CDCM decompose `map` whose regions run local search (the only path
# that journals a local-search region state), and a CWM decompose `map`
# on the perfbench workload's shape (96 cores, 192 packets, 12x12),
# killed 10 ms in: its incremental CWM evaluators keep their record in
# memory only, so the resumed run rebuilds it from the journaled
# placements.  Robust at either extreme: a machine fast enough to
# finish before the kill exercises the replay path, one killed before
# the first checkpoint exercises the fresh path.
NOCMAP_CLI := ./_build/default/bin/nocmap_cli.exe
SMOKE_DIR := _build/resume-smoke
SMOKE_MAP := map --noc 5x4 --app $(SMOKE_DIR)/app.cdcg --model cdcm \
	--algorithm portfolio --jobs 2
SMOKE_FAULTS := faults --app $(SMOKE_DIR)/app.cdcg --noc 5x4 --seed 5
SMOKE_DECOMPOSE := map --noc 8x8 --app $(SMOKE_DIR)/app60.cdcg --model cdcm \
	--algorithm decompose --refiner local --jobs 2
SMOKE_CWM := map --noc 12x12 --app $(SMOKE_DIR)/app96.cdcg --model cwm \
	--algorithm decompose --jobs 2 --seed 1
resume-smoke:
	dune build bin/nocmap_cli.exe
	rm -rf $(SMOKE_DIR) && mkdir -p $(SMOKE_DIR)
	$(NOCMAP_CLI) table2 --quick --seed 11 > $(SMOKE_DIR)/reference.txt 2>/dev/null
	-timeout --signal=INT --kill-after=60 2 $(NOCMAP_CLI) table2 --quick --seed 11 \
		--checkpoint-dir $(SMOKE_DIR)/ckpt --checkpoint-every 500 >/dev/null 2>&1
	$(NOCMAP_CLI) resume $(SMOKE_DIR)/ckpt > $(SMOKE_DIR)/resumed.txt 2>/dev/null
	cmp $(SMOKE_DIR)/reference.txt $(SMOKE_DIR)/resumed.txt
	$(NOCMAP_CLI) gen --cores 18 --packets 1500 --bits 700000 --seed 7 \
		-o $(SMOKE_DIR)/app.cdcg >/dev/null
	$(NOCMAP_CLI) $(SMOKE_MAP) > $(SMOKE_DIR)/map-reference.txt 2>/dev/null
	-timeout --signal=INT --kill-after=60 2 $(NOCMAP_CLI) $(SMOKE_MAP) \
		--checkpoint-dir $(SMOKE_DIR)/map-ckpt >/dev/null 2>&1
	$(NOCMAP_CLI) resume $(SMOKE_DIR)/map-ckpt > $(SMOKE_DIR)/map-resumed.txt 2>/dev/null
	cmp $(SMOKE_DIR)/map-reference.txt $(SMOKE_DIR)/map-resumed.txt
	$(NOCMAP_CLI) $(SMOKE_FAULTS) > $(SMOKE_DIR)/faults-reference.txt 2>/dev/null
	-timeout --signal=INT --kill-after=60 2 $(NOCMAP_CLI) $(SMOKE_FAULTS) \
		--checkpoint-dir $(SMOKE_DIR)/faults-ckpt >/dev/null 2>&1
	$(NOCMAP_CLI) resume $(SMOKE_DIR)/faults-ckpt \
		> $(SMOKE_DIR)/faults-resumed.txt 2>/dev/null
	cmp $(SMOKE_DIR)/faults-reference.txt $(SMOKE_DIR)/faults-resumed.txt
	$(NOCMAP_CLI) gen --cores 60 --packets 4000 --bits 2000000 --seed 7 \
		-o $(SMOKE_DIR)/app60.cdcg >/dev/null
	$(NOCMAP_CLI) $(SMOKE_DECOMPOSE) > $(SMOKE_DIR)/decompose-reference.txt 2>/dev/null
	-timeout --signal=INT --kill-after=60 2 $(NOCMAP_CLI) $(SMOKE_DECOMPOSE) \
		--checkpoint-dir $(SMOKE_DIR)/decompose-ckpt >/dev/null 2>&1
	$(NOCMAP_CLI) resume $(SMOKE_DIR)/decompose-ckpt \
		> $(SMOKE_DIR)/decompose-resumed.txt 2>/dev/null
	cmp $(SMOKE_DIR)/decompose-reference.txt $(SMOKE_DIR)/decompose-resumed.txt
	$(NOCMAP_CLI) gen --cores 96 --packets 192 --seed 1 \
		-o $(SMOKE_DIR)/app96.cdcg >/dev/null
	$(NOCMAP_CLI) $(SMOKE_CWM) > $(SMOKE_DIR)/cwm-reference.txt 2>/dev/null
	-timeout --signal=INT --kill-after=60 0.01 $(NOCMAP_CLI) $(SMOKE_CWM) \
		--checkpoint-dir $(SMOKE_DIR)/cwm-ckpt --checkpoint-every 500 >/dev/null 2>&1
	$(NOCMAP_CLI) resume $(SMOKE_DIR)/cwm-ckpt > $(SMOKE_DIR)/cwm-resumed.txt 2>/dev/null
	cmp $(SMOKE_DIR)/cwm-reference.txt $(SMOKE_DIR)/cwm-resumed.txt
	@echo "resume-smoke: resumed table, maps and campaign byte-identical to the uninterrupted runs"

# Daemon crash-safety smoke: spool two jobs into `nocmap serve`, kill
# the daemon with SIGKILL mid-search, restart it over the same state
# directory, and require each job's final result to be bit-identical to
# an uninterrupted reference run (see scripts/serve_smoke.sh).
serve-smoke:
	dune build bin/nocmap_cli.exe
	NOCMAP_CLI=$(NOCMAP_CLI) sh scripts/serve_smoke.sh

# Build-only smoke for the example programs.
examples:
	dune build examples/

# Warnings-as-errors build plus a clean-tree check: fails when the build
# leaves the working tree dirty or drops untracked files outside _build.
lint:
	dune build @all --profile lint
	@status="$$(git status --porcelain)"; \
	if [ -n "$$status" ]; then \
		echo "lint: dirty or untracked files after dune build:"; \
		echo "$$status"; \
		exit 1; \
	fi

clean:
	dune clean
	rm -f BENCH_baseline.json BENCH_comparison.json SCALE_profile.csv \
		SCALE_heatmap.csv
