# Convenience targets for the reproduction workflow.

PYTHON ?= python
SCALE ?= default

.PHONY: install test bench bench-ci bench-smoke bench-parallel bench-shard bench-chaos bench-obs bench-batch bench-policy bench-all soak bench-gate check figures clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	REPRO_SCALE=$(SCALE) $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-ci:
	REPRO_SCALE=ci $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Throughput snapshot at ci scale -> BENCH_engine.json (committed).
bench-smoke:
	$(PYTHON) benchmarks/snapshot.py --scale ci

# Parallel-runtime snapshot -> BENCH_runtime.json (committed): the same
# algorithm x seed grid timed serially and with workers=2, with a strict
# outputs-identical check.  Speedup is advisory (CI may be single-core).
bench-parallel:
	$(PYTHON) benchmarks/bench_runtime.py

# Sharded-execution snapshot -> BENCH_shard.json (committed): the same
# EXACT workload unsharded, sharded serial, and sharded over worker
# processes, with a strict identity check (output, total, drop ledger)
# plus serial==parallel determinism for the PROB approximation variant.
bench-shard:
	$(PYTHON) benchmarks/bench_shard.py

# Chaos-recovery snapshot -> BENCH_chaos.json (committed): sharded runs
# under a seeded worker kill with checkpoint/retry must reproduce the
# fault-free result bit-identically, and a degraded run must report a
# lost_output that exactly reconciles the deficit.
bench-chaos:
	$(PYTHON) benchmarks/bench_chaos.py

# Telemetry-plane snapshot -> BENCH_obs.json (committed): telemetry-on
# must reproduce telemetry-off bit-identically with a deterministic
# heartbeat count and stay within a 5% CPU-overhead budget; a faulted
# pooled leg writes its merged timeline (kill, retry, checkpoint
# restore) to benchmarks/results/timeline.json as Chrome trace JSON.
bench-obs:
	$(PYTHON) benchmarks/bench_telemetry.py

# Columnar-batch snapshot -> BENCH_batch.json (committed): per-tuple vs
# batched EXACT throughput (interleaved rounds) with a strict identity
# sweep — batched output/ledger/metrics must be bit-identical to
# per-tuple across policies, chunk sizes, and shards, and the batched
# lane must clear a 1.5x speedup floor.
bench-batch:
	$(PYTHON) benchmarks/bench_batch.py

# Policy-lane snapshot -> BENCH_policy.json (committed): per-tuple vs
# batched RAND/PROB/LIFE throughput (interleaved rounds) with a strict
# identity sweep — batched output/ledger/survival/metrics must be
# bit-identical to per-tuple across both allocation modes, chunk sizes
# {1, 7, 64, whole}, and shards, and batched PROB and LIFE must clear a
# 2.0x speedup floor.
bench-policy:
	$(PYTHON) benchmarks/bench_policy_batch.py

# Aggregate: run every bench-* gate (soak excluded; run `make soak`)
# against a temp output and print one consolidated table of current vs
# committed-baseline throughput and overhead columns.  Fails if any
# gate fails; never overwrites the committed baselines.
bench-all:
	$(PYTHON) benchmarks/bench_all.py

# Bounded-memory soak -> BENCH_soak.json (committed): 2M+ ticks from an
# unbounded zipf source through the streaming EXACT lane plus 200k
# through the full PROB+EWMA engine path, with tracemalloc asserting
# that live memory stays flat — bounded by the window/budget, never by
# stream length.  Override the tick budgets with SOAK_TICKS /
# SOAK_POLICY_TICKS for a quicker local run.
SOAK_TICKS ?= 2000000
SOAK_POLICY_TICKS ?= 200000
soak:
	$(PYTHON) benchmarks/bench_soak.py --ticks $(SOAK_TICKS) --policy-ticks $(SOAK_POLICY_TICKS)

# Perf-regression gate: fresh snapshots vs the committed BENCH_engine.json
# (and BENCH_runtime.json / BENCH_shard.json / BENCH_chaos.json /
# BENCH_batch.json / BENCH_policy.json / BENCH_soak.json when present).
# Fails on >20% throughput drops, output-count drift, instrumentation
# overhead growth, parallel/serial divergence, sharded-EXACT identity
# violations, fault-recovery drift, policy-lane identity/speedup-floor
# violations, or unbounded-stream memory growth; see
# benchmarks/regression.py for the tolerance knobs.
bench-gate:
	$(PYTHON) benchmarks/regression.py

# Tier-1 gate, as CI runs it: the full test-suite, the repository
# benchmark's tests (tiny traced and untraced runs of every workload —
# they fail when a function the tracer wraps by name is renamed or
# deleted), and the benchmark snapshot.
check:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q
	PYTHONPATH=src $(PYTHON) -m pytest -q perfbench/tests
	$(MAKE) bench-smoke

# Regenerate every figure/table via the CLI at the chosen scale.
figures:
	@for fig in figure3 figure4 figure5 figure6 figure7 figure8 figure9 figure10 figure11; do \
		REPRO_SCALE=$(SCALE) $(PYTHON) -m repro figure $$fig; echo; \
	done
	@for tbl in variable_memory varying_memory static_join multiway_join arm_study slow_cpu multi_query; do \
		REPRO_SCALE=$(SCALE) $(PYTHON) -m repro table $$tbl; echo; \
	done

clean:
	rm -rf benchmarks/results .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
