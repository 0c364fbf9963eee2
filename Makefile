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
# count multiplied by NOCMAP_PROP_MULT (default 20x here).
test-props:
	NOCMAP_PROP_MULT=$${NOCMAP_PROP_MULT:-20} dune runtest --force

# Full reproduction harness: every figure/table plus BENCH_nocmap.json.
bench:
	dune exec bench/main.exe

# Quick pass of the same harness (small search budgets, short measurement
# windows); still emits BENCH_nocmap.json.
bench-smoke:
	NOCMAP_BENCH_BUDGET=quick dune exec bench/main.exe

# Regression gate: stash the committed baseline, regenerate the quick
# benchmark, then compare the machine-independent ratios (arena/cutoff
# speedups, metrics tax, cache hit rate, symmetry eval fraction, the
# bit-identity booleans) with a +-15% tolerance.  Exit 1 on regression,
# exit 2 on a missing or malformed metric.  To refresh the baseline
# intentionally: run `make bench-smoke` and commit BENCH_nocmap.json.
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
# baseline — the scale_* keys and decompose_vs_flat_quality are gated
# like any other metric.  To refresh the baseline intentionally: run
# `make bench-smoke` and commit BENCH_nocmap.json.
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
# byte-identical to an uninterrupted run.  Robust at either extreme: a
# machine fast enough to finish before the kill exercises the replay
# path, one killed before the first checkpoint exercises the fresh path.
NOCMAP_CLI := ./_build/default/bin/nocmap_cli.exe
SMOKE_DIR := _build/resume-smoke
resume-smoke:
	dune build bin/nocmap_cli.exe
	rm -rf $(SMOKE_DIR) && mkdir -p $(SMOKE_DIR)
	$(NOCMAP_CLI) table2 --quick --seed 11 > $(SMOKE_DIR)/reference.txt 2>/dev/null
	-timeout --signal=INT --kill-after=60 2 $(NOCMAP_CLI) table2 --quick --seed 11 \
		--checkpoint-dir $(SMOKE_DIR)/ckpt --checkpoint-every 500 >/dev/null 2>&1
	$(NOCMAP_CLI) resume $(SMOKE_DIR)/ckpt > $(SMOKE_DIR)/resumed.txt 2>/dev/null
	cmp $(SMOKE_DIR)/reference.txt $(SMOKE_DIR)/resumed.txt
	@echo "resume-smoke: resumed table byte-identical to the uninterrupted run"

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
