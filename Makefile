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

.PHONY: install test check lint bench bench-quick bench-gate bench-pytest trace-smoke faults-smoke fastpath-smoke kernels-smoke campaign-smoke serve-smoke stream-smoke kernels-bench campaign-bench serve-bench stream-bench examples attack survey clean

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Tier-1 gate: the test suite plus the registry lint and the smoke runs.
check: test lint trace-smoke faults-smoke kernels-smoke fastpath-smoke campaign-smoke serve-smoke stream-smoke

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

# Event-stream smoke: one traced quick experiment plus the disabled-path
# overhead micro-benchmark (reduced trials; prints the per-access cost).
trace-smoke:
	$(PYTHON) -m repro.cli trace e02 --limit 0 > /dev/null
	$(PYTHON) -m repro.obs.bench --accesses 20000 --repeats 3

# Fault-campaign smoke: quick campaigns against one engine that must
# detect and one that must stay silent; the CLI exits non-zero when any
# verdict contradicts the engine's `detects` claim.
faults-smoke:
	$(PYTHON) -m repro.cli faults integrity-stream --kinds spoof replay \
		> /dev/null
	$(PYTHON) -m repro.cli faults stream --kinds spoof > /dev/null

# Campaign smoke: a tiny sharded design-space grid must produce
# byte-identical metrics at 1 and 2 workers (exits non-zero on any
# divergence, which would break distributed sweeps).
campaign-smoke:
	$(PYTHON) -m repro.campaign.bench --smoke

# Full campaign scaling bench: the >=1k-point grid at 1/2/4 workers;
# summary lands in BENCH_campaign_scaling.json.
campaign-bench:
	$(PYTHON) -m repro.campaign.bench

# Serve smoke: spawn the asyncio experiment server, hammer it with a few
# hundred concurrent clients, and require zero silent drops, server-vs-
# local byte-identity (experiment and campaign), and a clean shutdown.
serve-smoke:
	$(PYTHON) -m repro.serve.loadgen --smoke

# Full serve load test: >=1000 concurrent clients; the latency/dedup/
# throughput summary lands in BENCH_serve_quick.json.
serve-bench:
	$(PYTHON) -m repro.serve.loadgen --clients 1000 \
		--out BENCH_serve_quick.json

# Streaming smoke: chunked-vs-materialized byte-identity over an engine
# sample (chunk sizes incl. 1 and > len) plus a two-scale bounded-memory
# check, each scale in its own forked child.
stream-smoke:
	$(PYTHON) -m repro.sim.bench_stream --smoke

# Full streaming scaling ladder (10^6/10^7/10^8 accesses); accesses/sec
# and peak RSS per scale land in BENCH_stream_scaling.json.
stream-bench:
	$(PYTHON) -m repro.sim.bench_stream --out BENCH_stream_scaling.json

# Fast-path smoke: the scalar reference and the batched execution path
# must agree exactly — reports, bus streams, event totals — on one
# stream and one block-mode engine (the full registry sweep runs in
# tests/test_fastpath.py).
fastpath-smoke:
	$(PYTHON) -m repro.sim.bench_fastpath --check stream integrity-xom

# Cipher-kernel smoke: the equivalence tests plus a sanity run of the
# microbenchmark (exits non-zero if any kernel diverges from its
# reference cipher).
kernels-smoke:
	$(PYTHON) -m pytest tests/test_kernels.py -q
	$(PYTHON) -m repro.crypto.bench_kernels --quick

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
