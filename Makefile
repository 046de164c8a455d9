# Convenience entry points; dune does the real work.

BENCH := _build/default/bench/main.exe
REDFAT := _build/default/bin/redfat_cli.exe
EXAMPLES := $(wildcard examples/*.mc)

BENCH_DIFF := _build/default/tools/bench_diff.exe

# the gated experiments, run in this order into one report
GATED := table1 serve rebuild fuzz fig4

.PHONY: all build test check lint doc-check bench bench-json bench-gate \
	bench-baseline serve-smoke fuzz-smoke cache-smoke perf-check vm-golden \
	digest-golden serve-golden determinism ci clean

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

# the bench-regression gate: one run of the gated experiments, one
# diff against the one committed baseline.  Table 1's cycles come from
# the deterministic VM cost model, so any regression is a code change,
# not machine noise.  The run itself exits 1 when the nightly rebuild
# shares no blueprint cold, diverges from a cold rewrite, partitions
# more than once a night or reuses under 900 permille; tools/bench_diff
# then fails on a missing target, >10% cycle or overhead regressions,
# emitted-check increases, and falls in hoisted checks, the serve warm
# hit rate, rebuild reuse or fuzz unique bugs.  Wall-clock counters are
# reported, never gated.
bench-gate: build
	$(BENCH) $(GATED) --jobs 2 --out BENCH_gate.json > /dev/null
	$(BENCH_DIFF) bench/baseline.json BENCH_gate.json

# after an INTENTIONAL hardening/cost/cache/fuzzing change: refresh the
# baseline and commit it together with the change that explains it
bench-baseline: build
	$(BENCH) $(GATED) --jobs 2 --out bench/baseline.json > /dev/null
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

# fuzzing-fleet smoke: a bounded deterministic campaign (fixed seed and
# budget) over the seeded-bug suite on every backend, plus both parser
# campaigns and the x64 decoder campaign (run on its own, so its bug
# does not count toward the parsers' floor); each must find and
# deduplicate at least one planted bug and exit cleanly.  The redzone campaign runs again at --jobs 1 and
# must write the same report byte for byte: its executions share one
# loaded image across worker domains.  See docs/FUZZING.md for the
# triage contract.
fuzz-smoke: build
	@set -e; for b in redzone lowfat temporal; do \
	  $(REDFAT) fuzz bug:oob-write bug:oob-read bug:off-by-one bug:uaf \
	    bug:double-free bug:hang --backend $$b --budget 400 --seed 7 \
	    --jobs 2 --expect-bugs 6 \
	    --out _build/fuzz-smoke-$$b.json > /dev/null; \
	  echo "backend $$b: fuzz smoke OK"; \
	done
	$(REDFAT) fuzz bug:oob-write bug:oob-read bug:off-by-one bug:uaf \
	  bug:double-free bug:hang --backend redzone --budget 400 --seed 7 \
	  --jobs 1 --expect-bugs 6 \
	  --out _build/fuzz-smoke-redzone-jobs1.json > /dev/null
	cmp _build/fuzz-smoke-redzone-jobs1.json _build/fuzz-smoke-redzone.json
	@echo "backend redzone: --jobs 1 report identical to --jobs 2"
	$(REDFAT) fuzz relf minic --mode parse --budget 400 --seed 7 \
	  --expect-bugs 2 --out _build/fuzz-smoke-parse.json > /dev/null
	$(REDFAT) fuzz x64 --mode parse --budget 400 --seed 7 \
	  --expect-bugs 1 --out _build/fuzz-smoke-parse-x64.json > /dev/null
	$(REDFAT) fuzz relf minic x64 --mode parse --corpus test/corrupt \
	  --budget 400 --seed 7 > /dev/null
	@echo "parser campaigns: fuzz smoke OK"

# shared-cache smoke: two pipeline processes run at once on one
# --cache-dir, each appending to its own pack; a third run over the
# same directory must then miss nothing and print the same per-target
# summaries (everything above the stage table) as a --no-cache run
cache-smoke: build
	@set -e; dir=_build/cache-smoke; rm -rf $$dir; \
	  $(REDFAT) pipeline spec:mcf spec:bzip2 --cache-dir $$dir \
	    > _build/cache-smoke-a.out & a=$$!; \
	  $(REDFAT) pipeline spec:mcf spec:bzip2 --cache-dir $$dir \
	    > _build/cache-smoke-b.out & b=$$!; \
	  wait $$a; wait $$b; \
	  $(REDFAT) pipeline spec:mcf spec:bzip2 --cache-dir $$dir \
	    > _build/cache-smoke-warm.out; \
	  $(REDFAT) pipeline spec:mcf spec:bzip2 --no-cache \
	    > _build/cache-smoke-fresh.out; \
	  grep -q '^cache: enabled, .* / 0 misses / ' _build/cache-smoke-warm.out \
	    || { tail -1 _build/cache-smoke-warm.out; exit 1; }; \
	  sed '/^stage /,$$d' _build/cache-smoke-warm.out > _build/cache-smoke-warm.sum; \
	  sed '/^stage /,$$d' _build/cache-smoke-fresh.out > _build/cache-smoke-fresh.sum; \
	  diff _build/cache-smoke-fresh.sum _build/cache-smoke-warm.sum; \
	  echo "cache smoke OK: $$(ls $$dir | wc -l) pack(s), warm run missed nothing"

# after an INTENTIONAL cost-model change: rewrite the exact VM results
# table that test/test_vm_golden.ml pins (cycles, steps, accesses,
# verdicts, outputs, per-site check accounting) and commit it with the
# change that explains it
vm-golden: build
	_build/default/test/golden/gen.exe > test/golden/vm_golden.expected
	@echo "wrote test/golden/vm_golden.expected -- commit it with the explaining change"

# regenerate the byte-digest table that test/test_digest_golden.ml pins
# (MD5 of every binary the patch layer writes for its corpus); only an
# intentional change to the emitted bytes may do this
digest-golden: build
	_build/default/test/golden/gen.exe digest > test/golden/digest_golden.expected
	@echo "wrote test/golden/digest_golden.expected -- commit it with the explaining change"

# regenerate the response table that test/test_serve_golden.ml pins
# (every script-mode response line of the serving daemon over a fixed
# request list); only an intentional change to an answer may do this
serve-golden: build
	_build/default/test/golden/gen.exe serve > test/golden/serve_golden.expected
	@echo "wrote test/golden/serve_golden.expected -- commit it with the explaining change"

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

# tier-1 must not depend on domain scheduling: the engine suite (which
# compiles and verifies on several domains at once) passes 20 runs in a
# row, and Table 2 prints the same at --jobs 2 as at --jobs 1.  Nor on
# the harden path: Table 2 with the cache on, run from a fresh working
# directory so its _redfat_cache/ starts empty, prints the same again
determinism: build
	@set -e; for i in $$(seq 1 20); do \
	  (cd _build/default/test && ./main.exe test engine > /dev/null) \
	    || { echo "engine suite failed on run $$i"; exit 1; }; \
	done; echo "engine suite: 20/20 runs passed"
	$(BENCH) table2 --jobs 1 --no-cache > _build/table2-jobs1.out
	$(BENCH) table2 --jobs 2 --no-cache > _build/table2-jobs2.out
	diff _build/table2-jobs1.out _build/table2-jobs2.out
	@echo "table2: --jobs 2 output identical to --jobs 1"
	@bench=$$(pwd)/$(BENCH); out=$$(pwd)/_build/table2-cached.out; \
	  dir=$$(mktemp -d); rc=0; \
	  (cd $$dir && $$bench table2 --jobs 2 > $$out) || rc=$$?; \
	  rm -rf $$dir; exit $$rc
	diff _build/table2-jobs1.out _build/table2-cached.out
	@echo "table2: cached output identical to --no-cache"

# everything CI runs, in one local command (mirrors .github/workflows/ci.yml)
ci: build test determinism lint doc-check
	@set -e; for b in redzone lowfat temporal; do \
	  $(REDFAT) pipeline spec:mcf uaf:CWE416_write-after-free_v0 \
	    uaf:double-free --backend $$b --no-cache > /dev/null; \
	  $(REDFAT) pipeline spec:mcf --backend $$b --no-cache \
	    --trace _build/trace-$$b.json > /dev/null; \
	  echo "backend $$b: pipeline and trace smoke OK"; \
	done
	@set -e; for b in redzone lowfat temporal; do \
	  $(REDFAT) pipeline spec:mcf spec:bzip2 --hoist --backend $$b \
	    --no-cache > /dev/null; \
	  echo "backend $$b: hoist pipeline smoke OK"; \
	done
	$(MAKE) bench-gate
	$(MAKE) serve-smoke
	$(MAKE) fuzz-smoke
	$(MAKE) cache-smoke
	$(MAKE) perf-check

clean:
	dune clean
	rm -rf _redfat_cache BENCH_*.json
