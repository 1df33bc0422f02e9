# Convenience targets for the repro package.

PYTHON ?= python
PYTHONPATH := src:.
export PYTHONPATH

# Engine classes may only be constructed inside repro/core (and its tests);
# everyone else goes through the registry (repro.core.registry.make_engine).
ENGINE_CTORS := (Best|DS5002FP|DS5240|VlsiDma|GeneralInstrument|Gilmont|XomAes|Aegis|StreamCipher|CompressedEncryption|IntegrityShield|MerkleTree|AddressScrambled)Engine\(

# The data path reports through repro.obs events, never through print()
# debugging or ad-hoc collections.Counter tallies left behind in the
# simulator.
OBS_BYPASS := (^|[^.[:alnum:]_])(print|Counter)\(

# Code outside the package integrates through the supported surfaces
# (repro.api, repro.runner top level); deep repro.runner.* imports from
# benchmarks/examples would freeze internal layout.
RUNNER_DEEP := ^[[:space:]]*(from repro\.runner\.[[:alnum:]_.]+ import|import repro\.runner\.)

.PHONY: install test check lint smoke bench bench-quick bench-gate bench-pytest kernels-bench campaign-bench serve-bench stream-bench examples attack survey clean

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/ perfbench/tests/

# Tier-1 gate: the test suite plus the registry lint and the smoke runs.
check: test lint smoke

lint:
	@matches=$$(grep -rnE '$(ENGINE_CTORS)' --include='*.py' \
		src/repro benchmarks examples | grep -v '^src/repro/core/' || true); \
	if [ -n "$$matches" ]; then \
		echo "lint: construct engines via repro.core.registry.make_engine:" >&2; \
		echo "$$matches" >&2; \
		exit 1; \
	fi; \
	echo "lint: ok (engine construction goes through the registry)"
	@matches=$$(grep -rnE '$(OBS_BYPASS)' --include='*.py' \
		src/repro/sim || true); \
	if [ -n "$$matches" ]; then \
		echo "lint: the simulator reports via repro.obs events, not" >&2; \
		echo "      print()/Counter() (see repro/obs/__init__.py):" >&2; \
		echo "$$matches" >&2; \
		exit 1; \
	fi; \
	echo "lint: ok (sim reports through repro.obs events)"
	@matches=$$(grep -rnE '$(RUNNER_DEEP)' --include='*.py' \
		benchmarks examples || true); \
	if [ -n "$$matches" ]; then \
		echo "lint: import the runner surface via repro.runner (or" >&2; \
		echo "      repro.api), not deep repro.runner.* modules:" >&2; \
		echo "$$matches" >&2; \
		exit 1; \
	fi; \
	echo "lint: ok (benchmarks/examples stay on the repro.runner surface)"

# Smoke runs: SMOKE_<name> is the `$(PYTHON) -m` command line of one run.
# `make smoke` runs them in the order of SMOKES and stops at the first
# that exits non-zero.
#
# trace      one traced quick experiment (output discarded);
# obs-bench  the disabled-path emit cost (reduced trials, prints it);
# faults-*   quick fault campaigns against an engine that must detect and
#            one that must stay silent: the CLI exits non-zero when a
#            verdict contradicts the engine's `detects` claim;
# kernels    a sanity run of the cipher-kernel microbenchmark (exits
#            non-zero if a kernel diverges from its reference cipher);
# campaign   a tiny sharded grid gives byte-identical metrics at 1 and 2
#            workers;
# serve      a few hundred concurrent clients against the asyncio server:
#            no silent drops, server-vs-local byte identity, clean
#            shutdown;
# stream     chunked-vs-materialized byte identity over an engine sample
#            plus a two-scale bounded-memory check in forked children.
SMOKES := trace obs-bench faults-detect faults-silent kernels campaign \
	serve stream
SMOKE_trace         := repro.cli trace e02 --limit 0 > /dev/null
SMOKE_obs-bench     := repro.obs.bench --accesses 20000 --repeats 3
SMOKE_faults-detect := repro.cli faults integrity-stream --kinds spoof \
	replay > /dev/null
SMOKE_faults-silent := repro.cli faults stream --kinds spoof > /dev/null
SMOKE_kernels       := repro.crypto.bench_kernels --quick
SMOKE_campaign      := repro.campaign.bench --smoke
SMOKE_serve         := repro.serve.loadgen --smoke
SMOKE_stream        := repro.sim.bench_stream --smoke

define newline


endef

smoke:
	$(foreach s,$(SMOKES),$(PYTHON) -m $(SMOKE_$(s))$(newline))

# Full campaign scaling bench: the >=1k-point grid at 1/2/4 workers;
# summary lands in BENCH_campaign_scaling.json.
campaign-bench:
	$(PYTHON) -m repro.campaign.bench

# Full serve load test: >=1000 concurrent clients; the latency/dedup/
# throughput summary lands in BENCH_serve_quick.json.
serve-bench:
	$(PYTHON) -m repro.serve.loadgen --clients 1000 \
		--out BENCH_serve_quick.json

# Full streaming scaling ladder (10^6/10^7/10^8 accesses); accesses/sec
# and peak RSS per scale land in BENCH_stream_scaling.json.
stream-bench:
	$(PYTHON) -m repro.sim.bench_stream --out BENCH_stream_scaling.json

# Full kernel timing table (reference loop vs batched kernel, all ciphers).
kernels-bench:
	$(PYTHON) -m repro.crypto.bench_kernels

# The E01-E19 experiment suite via the parallel runner; metrics land in
# BENCH_metrics.json (+ _profile.json).  Override: make bench WORKERS=4
WORKERS ?= 1

bench:
	$(PYTHON) -m repro.cli bench --workers $(WORKERS) --tables

# Scaled-down full suite (< 60 s), e.g. as a pre-commit smoke run.
bench-quick:
	$(PYTHON) -m repro.cli bench --quick --workers $(WORKERS) \
		--out BENCH_quick_metrics.json --cache-dir .bench_cache_quick

# Performance gate (CI): a fresh-cache quick suite must reproduce the
# committed metrics byte-for-byte and finish within 25% of the committed
# wall-time profile.
bench-gate:
	cp BENCH_quick_metrics_profile.json /tmp/bench_profile_baseline.json
	rm -rf .bench_cache_quick
	$(MAKE) bench-quick
	git diff --exit-code BENCH_quick_metrics.json
	$(PYTHON) -m repro.runner.profile_gate \
		--profile BENCH_quick_metrics_profile.json \
		--baseline /tmp/bench_profile_baseline.json --tolerance 0.25

# The same experiment bodies under pytest-benchmark (per-bench timing).
bench-pytest:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	@for f in examples/*.py; do \
		echo "=== $$f ==="; \
		$(PYTHON) "$$f" || exit 1; \
	done

attack:
	$(PYTHON) -m repro.cli attack

survey:
	$(PYTHON) -m repro.cli survey

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null || true
	rm -rf .pytest_cache .hypothesis *.egg-info src/*.egg-info
	rm -rf .bench_cache .bench_cache_quick .bench_campaign_cache
	rm -rf .bench_serve_cache
	rm -f BENCH_metrics.json BENCH_metrics_profile.json
	rm -f BENCH_campaign_metrics.json BENCH_campaign_metrics_profile.json
