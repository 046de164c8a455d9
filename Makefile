# Convenience entry points; dune does the real work.

BENCH := _build/default/bench/main.exe
REDFAT := _build/default/bin/redfat_cli.exe
EXAMPLES := $(wildcard examples/*.mc)

BENCH_DIFF := _build/default/tools/bench_diff.exe

.PHONY: all build test check lint doc-check bench bench-json bench-gate \
	bench-baseline serve-smoke bench-serve-gate bench-serve-baseline \
	rebuild-smoke bench-rebuild-gate bench-rebuild-baseline \
	fuzz-smoke bench-fuzz-gate bench-fuzz-baseline perf-check ci clean

all: build

build:
	dune build

test:
	dune runtest

# harden every MiniC example — with and without loop hoisting — and
# audit both with the rewrite-soundness linter: zero unaccounted
# memory accesses and zero unprovable hoists, or the build fails
lint: build
	@mkdir -p _build/lint
	@set -e; for src in $(EXAMPLES); do \
	  out=_build/lint/$$(basename $$src .mc); \
	  $(REDFAT) compile $$src -o $$out.relf >/dev/null; \
	  $(REDFAT) harden $$out.relf -o $$out.hard.relf >/dev/null; \
	  $(REDFAT) verify --quiet $$out.hard.relf; \
	  $(REDFAT) harden $$out.relf --hoist -o $$out.hoist.relf >/dev/null; \
	  $(REDFAT) verify --quiet $$out.hoist.relf; \
	done

# the docs-sync gate: CLI flags and the fault taxonomy in
# docs/MANUAL.md must match the code, and intra-repo markdown links
# must resolve
doc-check:
	dune build tools/doc_check.exe
	_build/default/tools/doc_check.exe

# the tier-1 gate plus the lint audit, the docs-sync gate, and a
# parallel-engine smoke run
check:
	dune build
	dune runtest
	$(MAKE) lint
	$(MAKE) doc-check
	dune build bench/main.exe
	$(BENCH) fig4 --jobs 2

bench: build
	$(BENCH)

# one structured-report example: Table 1 fanned over 4 domains,
# artifacts cached in _redfat_cache/ so repeated runs start warm
bench-json: build
	$(BENCH) table1 --jobs 4 --out BENCH_table1.json
	@echo "wrote BENCH_table1.json"

# the bench-regression gate: regenerate Table 1 and diff it against
# the committed baseline.  Cycle counts come from the deterministic VM
# cost model, so any regression is a code change, not machine noise.
# Fails on emitted-check-count increases or >10% cycle regressions.
bench-gate: build
	$(BENCH) table1 --jobs 2 --out BENCH_table1.json > /dev/null
	$(BENCH_DIFF) bench/baseline.json BENCH_table1.json

# after an INTENTIONAL hardening/cost change: refresh the baseline and
# commit it together with the change that explains it
bench-baseline: build
	$(BENCH) table1 --jobs 2 --out bench/baseline.json > /dev/null
	@echo "wrote bench/baseline.json -- commit it with the explaining change"

# serving-tier smoke: start the daemon on a Unix socket, drive a
# scripted request mix through the client on every backend, assert a
# nonzero hot-tier hit count, then check clean SIGTERM shutdown
serve-smoke: build
	@set -e; for b in redzone lowfat temporal; do \
	  sock=/tmp/redfat-serve-smoke-$$b.sock; \
	  printf '%s\n' \
	    '{"id":"h1","op":"harden","target":"spec:mcf","backend":"'$$b'"}' \
	    '{"id":"h2","op":"harden","target":"spec:mcf","backend":"'$$b'"}' \
	    '{"id":"h3","op":"harden","target":"spec:mcf","backend":"'$$b'"}' \
	    '{"id":"v1","op":"verify","target":"spec:mcf","backend":"'$$b'"}' \
	    '{"id":"t1","op":"trace","target":"uaf:double-free","backend":"'$$b'"}' \
	    '{"id":"s1","op":"stats"}' \
	    > _build/serve-smoke-$$b.jsonl; \
	  $(REDFAT) serve --socket $$sock --no-cache \
	    > _build/serve-smoke-$$b.log & pid=$$!; \
	  $(REDFAT) serve --socket $$sock --send _build/serve-smoke-$$b.jsonl \
	    > _build/serve-smoke-$$b.out; \
	  grep -q '"serve.cache.hits": [1-9]' _build/serve-smoke-$$b.out; \
	  kill -TERM $$pid; wait $$pid; \
	  test ! -e $$sock; \
	  echo "backend $$b: serve smoke OK"; \
	done

# the serving-tier regression gate: the Zipf traffic simulation through
# the daemon's request path; gates the warm-phase hit rate
# (serve.warm.hit_permille must not decrease) and the emitted-check
# counters.  Throughput and latency are reported but never gated.
bench-serve-gate: build
	$(BENCH) serve --out BENCH_serve.json > /dev/null
	$(BENCH_DIFF) bench/serve_baseline.json BENCH_serve.json

# after an INTENTIONAL serving/cache change: refresh the fleet baseline
bench-serve-baseline: build
	$(BENCH) serve --out bench/serve_baseline.json > /dev/null
	@echo "wrote bench/serve_baseline.json -- commit it with the explaining change"

# incremental-reuse smoke: harden a small fleet cold, perturb one
# function, re-harden.  Fails unless blueprints were shared on the
# cold pass, >= 900 permille of per-function artifacts were reused,
# and every incremental result is byte-identical (binary, .elimtab,
# verify verdict) to a cold monolithic rewrite on every backend
rebuild-smoke: build
	$(BENCH) rebuild --benches perlbench,gcc,calculix --nights 1 \
	  --min-reuse 900

# the incremental-rebuild regression gate: the full 29-kernel nightly
# scenario; gates rebuild.fns_reused_permille (may never decrease).
# Wall-clock rebuild times are reported but never gated.
bench-rebuild-gate: build
	$(BENCH) rebuild --out BENCH_rebuild.json > /dev/null
	$(BENCH_DIFF) bench/rebuild_baseline.json BENCH_rebuild.json

# after an INTENTIONAL partition/cache-key change: refresh the baseline
bench-rebuild-baseline: build
	$(BENCH) rebuild --out bench/rebuild_baseline.json > /dev/null
	@echo "wrote bench/rebuild_baseline.json -- commit it with the explaining change"

# fuzzing-fleet smoke: a bounded deterministic campaign (fixed seed and
# budget) over the seeded-bug suite on every backend, plus both parser
# campaigns; each must find and deduplicate at least one planted bug
# and exit cleanly.  See docs/FUZZING.md for the triage contract.
fuzz-smoke: build
	@set -e; for b in redzone lowfat temporal; do \
	  $(REDFAT) fuzz bug:oob-write bug:oob-read bug:off-by-one bug:uaf \
	    bug:double-free bug:hang --backend $$b --budget 400 --seed 7 \
	    --jobs 2 --expect-bugs 6 \
	    --out _build/fuzz-smoke-$$b.json > /dev/null; \
	  echo "backend $$b: fuzz smoke OK"; \
	done
	$(REDFAT) fuzz relf minic --mode parse --budget 400 --seed 7 \
	  --expect-bugs 2 --out _build/fuzz-smoke-parse.json > /dev/null
	@echo "parser campaigns: fuzz smoke OK"

# the fuzzing regression gate: regenerate the smoke matrix through the
# bench harness and diff it against the committed baseline; any
# fuzz.unique_bugs decrease (a campaign stopped finding a seeded bug)
# fails the build
bench-fuzz-gate: build
	$(BENCH) fuzz --jobs 2 --out BENCH_fuzz.json > /dev/null
	$(BENCH_DIFF) bench/fuzz_baseline.json BENCH_fuzz.json

# after an INTENTIONAL oracle/scheduler/mutator change: refresh the
# fuzzing baseline and commit it with the change that explains it
bench-fuzz-baseline: build
	$(BENCH) fuzz --jobs 2 --out bench/fuzz_baseline.json > /dev/null
	@echo "wrote bench/fuzz_baseline.json -- commit it with the explaining change"

# the benchmark's own output checks: a short untraced run of each
# BENCHMARK.json workload must end with "correct": true and
# "failed": 0 (hardened runs and Memcheck match the baseline, fuzz
# finds its planted bugs, rewrites verify); timings are not checked
perf-check:
	@mkdir -p _build
	@set -e; for w in table1 fuzz rewrite serve; do \
	  sh bench/perf/run.sh --workload $$w --seed 1 --seconds 2 --trace 0 \
	    > _build/perf-check-$$w.out; \
	  tail -1 _build/perf-check-$$w.out \
	    | grep -q '^{"correct": true, "attempted": [0-9]*, "failed": 0,'; \
	  echo "workload $$w: perf check OK"; \
	done

# everything CI runs, in one local command (mirrors .github/workflows/ci.yml)
ci: build test lint doc-check
	@set -e; for b in redzone lowfat temporal; do \
	  $(REDFAT) pipeline spec:mcf uaf:CWE416_write-after-free_v0 \
	    uaf:double-free --backend $$b --no-cache > /dev/null; \
	  echo "backend $$b: pipeline smoke OK"; \
	done
	@set -e; for b in redzone lowfat temporal; do \
	  $(REDFAT) pipeline spec:mcf spec:bzip2 --hoist --backend $$b \
	    --no-cache > /dev/null; \
	  echo "backend $$b: hoist pipeline smoke OK"; \
	done
	$(BENCH) fig4 --jobs 2
	$(MAKE) bench-gate
	$(MAKE) serve-smoke
	$(MAKE) bench-serve-gate
	$(MAKE) rebuild-smoke
	$(MAKE) bench-rebuild-gate
	$(MAKE) fuzz-smoke
	$(MAKE) bench-fuzz-gate
	$(MAKE) perf-check

clean:
	dune clean
	rm -rf _redfat_cache BENCH_*.json
