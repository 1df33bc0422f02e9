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

# Engines have one fill path, BusEncryptionEngine.fill_lines: the base
# class (core/engine.py) is the only definer of fill_line, a one-line
# fill_lines, and the retired per-line twin stays gone from src/.
FILL_LINE_DEF := ^[[:space:]]+def fill_line\(
FILL_TWINS := _fill_batch

# Engines have one write path, BusEncryptionEngine.spill_lines: the base
# class is the only definer of write_line, a one-line spill_lines, and the
# simulator spills through spill_lines, never write_line.
WRITE_LINE_DEF := ^[[:space:]]+def write_line\(
WRITE_LINE_HOME := ^src/repro/core/engine\.py:
WRITE_LINE_CALL := \.write_line\(

# The simulator is watched through repro.obs sinks and tampered with
# through MainMemory interposers: the bus keeps no probe or interposer
# hooks of its own, and the SimStats facade and its aliases stay gone.
OBS_HOOKS := attach_probe|detach_probe|SimStats|StatsSink|CountingSink
BUS_INTERPOSER_DEF := def (attach|detach)_interposer\(

# Sites report to a sink through EventSink.note, which builds a
# TraceEvent only for a sink that keeps events; no site builds one for a
# sink that only counts.
EMIT_EVENT := emit\(TraceEvent\(

# Each engine defines one write transform: the base encrypt_line is a
# one-line encrypt_lines and the base encrypt_lines loops encrypt_line,
# so an encrypt_lines override falling back to super() would recurse.
ENCRYPT_FALLBACK := super\(\)\.encrypt_lines\(

# Wrapped engines delegate to their inner engine in one place: only
# WrappedEngine.__init__ (core/engine.py) sets self.inner, and integrity
# and merkle verify through the base fill loop's _verify_fill hook and
# write through the shared LineAuthEngine.spill_lines, defining no fill
# or write body themselves.
INNER_SET := self\.inner *=[^=]
AUTH_BODIES := ^[[:space:]]+def (fill_lines|write_line|spill_lines)\(

# AES, DES and 3DES each have one production form, the registry kernel
# (aes_kernel/des_kernel/tdes_kernel): nothing promotes an algebraic cipher
# to a kernel, and only the crypto modules that derive the kernels or
# check them construct an algebraic cipher.
CIPHER_PROMOTE := kernel_for|from_cipher|_repro_kernel
ALGEBRAIC_CTOR := (^|[^[:alnum:]_])(AES|DES|TripleDES)\(
ALGEBRAIC_HOMES := ^src/repro/crypto/(aes|des|kernels|bench_kernels)\.py:

# The executor has one body, fastpath.chunk_consumer, pulled by execute
# and pushed by StreamExecutor in the caller's thread: the simulator
# imports no threading or queue, and the per-chunk compiling wrapper and
# the stream-from-accesses constructor stay gone.
SIM_THREADS := ^[[:space:]]*(import|from)[[:space:]]+(threading|queue)([^[:alnum:]_]|$$)
STREAM_RETIRED := CompiledTraceStream|from_accesses

# Each trace generator has one form: the lazy iter_* generators and the
# array dma_burst_chunks.  The list twins, the whole-file loaders and the
# scalar dma-burst generator stay out of the program; the last is the
# array generator's oracle in tests/reference_traces.py.
TRACE_TWINS := sequential_code|branchy_code|data_stream|random_data|pointer_chase|write_burst|mixed_workload|load_trace|load_trace_bin
TWIN_DEF := ^[[:space:]]*def ($(TRACE_TWINS))\(
TWIN_IMPORT_LINE := ^[[:space:]]*from[[:space:]].*[[:space:]]import[[:space:]](.*[^[:alnum:]_])?($(TRACE_TWINS))([^[:alnum:]_]|$$)
TWIN_IMPORT_ITEM := ^[[:space:]]+($(TRACE_TWINS))([[:space:]]+as[[:space:]]+[[:alnum:]_]+)?,?[[:space:]]*$$

# AES has one narrow rung, whole-batch rounds over one int
# (crypto/kernels.py _encrypt_int/_decrypt_int): the per-block T-table
# loops, their tables and their schedule helpers stay out of src/.
AES_TTABLE := (^|[^[:alnum:]_])(_TE|_TD|_IMIX|_encrypt_blocks_scalar|_decrypt_blocks_scalar|_pack_words|_inv_mix_word)([^[:alnum:]_]|$$)

# Cache-access semantics live in one place, the executor
# (fastpath.chunk_consumer): Cache holds state only, and the two-level
# hierarchy runs its L1 through the executor behind an L2 port, so
# CacheResult, a def access( in sim/cache.py and the hand-rolled L1 stay
# out of src/.
CACHE_ACCESS := (^|[^[:alnum:]_])(CacheResult|_l1_view|_l1_writeback|_fetch_into_l1)([^[:alnum:]_]|$$)
CACHE_ACCESS_DEF := ^[[:space:]]+def access\(

# GI's regions and VLSI's pages are one chained-3DES body,
# ChainedTDESEngine (core/engine.py): the 3DES kernel, the unit IV, the
# memoized whole-unit CBC transform, install_image, read_plain and the
# four line stubs stay out of the two engines, which plug in through the
# _install_unit/_load_unit layout hooks.
CHAIN_ENGINES := src/repro/core/general_instrument.py src/repro/core/vlsi_dma.py
CHAIN_BODY := ^[[:space:]]+(def[[:space:]]+)?(install_image|read_plain|encrypt_line|decrypt_line|read_extra_cycles|write_extra_cycles|_[[:alnum:]_]*_iv|_(en|de)crypt_[[:alnum:]_]+|_chain_transform)[[:space:]]*[(=]|tdes_kernel|encrypt_block\(|_MEMO

# An experiment's tasks run through one body, runner._execute_task, and
# its entry is built by one function, runner.experiment_entry: the runner,
# repro.api.run_experiment (serve, cli trace) and the parametrized
# benchmarks/bench_experiments.py all go through them, so Experiment
# defines no run(), the API indexes no task table, and the per-experiment
# bench wrappers stay gone.
EXPERIMENT_RUN := ^[[:space:]]+def run\(
API_TASKS := \.tasks\[

# The DS5002FP is one board, attacks/kuhn.py's DallasBoard (its optional
# address scrambler selects the enciphered address bus), under one search
# base, CipherInstructionSearch, which holds the probe, restore, signature
# and dump gadget of both strategies: the scrambled board twin and the
# bus-address signature twin stay gone, attacks/ defines reset_and_step
# once, and the uncalled Huffman coder stays out (sim/area.py's
# huffman_decoder gate count is an area constant, not the coder).  Cell 0
# is decoded by simulating the public ISA (CipherInstructionSearch._decode0),
# so the per-shape cell-0 decoders stay gone, and the attacker never reads
# the plaintext opcode a StepEvent carries: no .opcode in attacks/.
KUHN_RETIRED := ScrambledDallasBoard|_signature_of|huffman|_decode_(cell0|fall3|silent0|landed0|jump0|two_byte0|one_byte0)
STEP_OPCODE := \.opcode([^[:alnum:]_]|$$)
AREA_CONSTANT := ^src/repro/sim/area\.py:[0-9]+:[[:space:]]+"huffman_decoder":
RESET_AND_STEP_DEF := ^[[:space:]]*def reset_and_step\(

# An overhead is priced in one place, analysis.price_engines: one
# plaintext baseline per trace and geometry.  The campaign, the engine
# package and the experiments run no baseline of their own (no
# engine=None, no engine-less SecureSystem/TwoLevelSystem), call no
# overhead_vs( and define no _baseline memo.  E16 (a TwoLevelSystem,
# already one baseline) and E18's scrambling probe (each secured run
# carries its own BusProbe, which must not see a baseline's bus) keep
# their own.  Hits print as file:function:line.
PRICE_BODY := engine=None|overhead_vs\(|def _baseline([^[:alnum:]_]|$$)|(SecureSystem|TwoLevelSystem)\((cache_config|l1_config|mem_config|\))
PRICE_DIRS := src/repro/campaign src/repro/core src/repro/runner/experiments
PRICE_EXEMPT := ^src/repro/runner/experiments/(e16\.py|e18\.py:task_scrambling_probe):

# Port traffic moves in groups: MainMemory's and the Bus's read, write,
# transfer and tally are called (or bound) only by MemoryPort
# (core/engine.py), which tallies a count-only sink once per group, and
# the base fill and store bodies move their lines through
# port.read_lines/port.write_lines, never one port.read(/port.write( per
# line (the retired per-line _fetch_line is checked too).  Hits print as
# file:class:line or file:class.method:line.
PORT_LAYER_CALL := (bus|memory)\.(transfer|tally|read|write)([^[:alnum:]_]|$$)
PORT_LAYER_HOME := ^src/repro/core/engine\.py:MemoryPort:
PORT_LINE_CALL := port\.(read|write)\(
GROUP_BODIES := :BusEncryptionEngine\.(fill_lines|_fetch_line|_store):

# A fault rig copies the pages its memory has touched
# (MainMemory.touched_pages), never the whole array: nothing under
# src/repro/faults dumps from address 0 or sizes a copy by config.size.
WHOLE_MEMORY := dump\(0[[:space:]]*,|config\.size

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
	@matches=$$(grep -rnE '$(FILL_LINE_DEF)' --include='*.py' \
		src/repro/core | grep -v '^src/repro/core/engine\.py:' || true); \
	count=$$(grep -cE '$(FILL_LINE_DEF)' src/repro/core/engine.py); \
	twins=$$(grep -rnIE '$(FILL_TWINS)' --exclude-dir=__pycache__ \
		src || true); \
	if [ -n "$$matches$$twins" ] || [ "$$count" != 1 ]; then \
		echo "lint: engines fill through fill_lines; only" >&2; \
		echo "      BusEncryptionEngine defines fill_line, and" >&2; \
		echo "      _fill_batch stays out of src/:" >&2; \
		[ -z "$$matches" ] || echo "$$matches" >&2; \
		[ -z "$$twins" ] || echo "$$twins" >&2; \
		exit 1; \
	fi; \
	echo "lint: ok (one engine fill path)"
	@defs=$$(grep -rnE '$(WRITE_LINE_DEF)' --include='*.py' src/repro \
		|| true); \
	others=$$(echo "$$defs" | grep -vE '$(WRITE_LINE_HOME)' | grep . \
		|| true); \
	base=$$(echo "$$defs" | grep -cE '$(WRITE_LINE_HOME)'); \
	calls=$$(grep -rnE '$(WRITE_LINE_CALL)' --include='*.py' \
		src/repro/sim || true); \
	if [ -n "$$others$$calls" ] || [ "$$base" != 1 ]; then \
		echo "lint: engines write through spill_lines; only" >&2; \
		echo "      BusEncryptionEngine defines write_line, and" >&2; \
		echo "      repro.sim calls no .write_line(:" >&2; \
		[ "$$base" = 1 ] || echo "core/engine.py defines write_line $$base times" >&2; \
		[ -z "$$others" ] || echo "$$others" >&2; \
		[ -z "$$calls" ] || echo "$$calls" >&2; \
		exit 1; \
	fi; \
	echo "lint: ok (one engine write path)"
	@matches=$$(grep -rnIE '$(OBS_HOOKS)' --exclude-dir=__pycache__ \
		src tests examples benchmarks || true); \
	defs=$$(grep -nE '$(BUS_INTERPOSER_DEF)' src/repro/sim/bus.py || true); \
	stats=$$(ls src/repro/sim/stats.py 2>/dev/null || true); \
	if [ -n "$$matches$$defs$$stats" ]; then \
		echo "lint: watch the simulator through repro.obs sinks and" >&2; \
		echo "      tamper through MainMemory interposers; the bus" >&2; \
		echo "      hooks and sim/stats.py stay gone:" >&2; \
		[ -z "$$matches" ] || echo "$$matches" >&2; \
		[ -z "$$defs" ] || echo "$$defs" >&2; \
		[ -z "$$stats" ] || echo "$$stats" >&2; \
		exit 1; \
	fi; \
	echo "lint: ok (one way to watch the simulator)"
	@matches=$$(grep -rnIE '$(EMIT_EVENT)' --exclude-dir=__pycache__ \
		src/repro || true); \
	if [ -n "$$matches" ]; then \
		echo "lint: sites report through sink.note(kind, ...), not" >&2; \
		echo "      sink.emit(TraceEvent(...)) (see repro/obs/sinks.py):" >&2; \
		echo "$$matches" >&2; \
		exit 1; \
	fi; \
	echo "lint: ok (sites report through note)"
	@matches=$$(grep -rnIE '$(ENCRYPT_FALLBACK)' --exclude-dir=__pycache__ \
		src/repro || true); \
	if [ -n "$$matches" ]; then \
		echo "lint: an engine defines one of encrypt_line/encrypt_lines;" >&2; \
		echo "      super().encrypt_lines( would recurse:" >&2; \
		echo "$$matches" >&2; \
		exit 1; \
	fi; \
	echo "lint: ok (one write transform per engine)"
	@sets=$$(grep -rnIE '$(INNER_SET)' --exclude-dir=__pycache__ \
		src/repro || true); \
	owner=$$(awk '/^class /{split($$2, c, "(")} \
		/^    def /{split($$2, d, "(")} \
		/$(INNER_SET)/{print c[1] "." d[1]}' src/repro/core/engine.py); \
	bodies=$$(grep -nE '$(AUTH_BODIES)' src/repro/core/integrity.py \
		src/repro/core/merkle.py || true); \
	if [ "$$(echo "$$sets" | wc -l)" != 1 ] \
			|| [ "$$owner" != WrappedEngine.__init__ ] \
			|| [ -n "$$bodies" ]; then \
		echo "lint: only WrappedEngine.__init__ sets self.inner, and" >&2; \
		echo "      integrity/merkle define no fill_lines/write_line/" >&2; \
		echo "      spill_lines" >&2; \
		echo "      (they supply _verify_fill/_update_auth hooks):" >&2; \
		echo "$$sets" >&2; \
		[ -z "$$bodies" ] || echo "$$bodies" >&2; \
		exit 1; \
	fi; \
	echo "lint: ok (wrappers delegate to inner in one place)"
	@promoted=$$(grep -rnIE '$(CIPHER_PROMOTE)' --exclude-dir=__pycache__ \
		src tests examples benchmarks || true); \
	ctors=$$(grep -rnIE '$(ALGEBRAIC_CTOR)' --exclude-dir=__pycache__ \
		src/repro examples | grep -vE '$(ALGEBRAIC_HOMES)' || true); \
	if [ -n "$$promoted$$ctors" ]; then \
		echo "lint: production ciphers come from aes_kernel/des_kernel/" >&2; \
		echo "      tdes_kernel; only crypto/aes, des, kernels and" >&2; \
		echo "      bench_kernels construct AES/DES/TripleDES:" >&2; \
		[ -z "$$promoted" ] || echo "$$promoted" >&2; \
		[ -z "$$ctors" ] || echo "$$ctors" >&2; \
		exit 1; \
	fi; \
	echo "lint: ok (one production cipher per algorithm)"
	@threads=$$(grep -rnIE '$(SIM_THREADS)' --include='*.py' \
		src/repro/sim || true); \
	retired=$$(grep -rnIE '$(STREAM_RETIRED)' --exclude-dir=__pycache__ \
		src tests examples benchmarks || true); \
	if [ -n "$$threads$$retired" ]; then \
		echo "lint: one executor, pulled by execute or pushed by" >&2; \
		echo "      StreamExecutor: no threading/queue in repro.sim," >&2; \
		echo "      no CompiledTraceStream or from_accesses:" >&2; \
		[ -z "$$threads" ] || echo "$$threads" >&2; \
		[ -z "$$retired" ] || echo "$$retired" >&2; \
		exit 1; \
	fi; \
	echo "lint: ok (one executor, pulled or pushed)"
	@defs=$$(grep -rnIE '$(TWIN_DEF)' --include='*.py' src || true); \
	imports=$$(grep -rnIE -e '$(TWIN_IMPORT_LINE)' -e '$(TWIN_IMPORT_ITEM)' \
		--include='*.py' src examples benchmarks || true); \
	oracle=$$(grep -rnIw -e iter_dma_bursts -e iter_data_accesses \
		--include='*.py' --exclude-dir=tests --exclude-dir=__pycache__ \
		. || true); \
	if [ -n "$$defs$$imports$$oracle" ]; then \
		echo "lint: one form per trace generator: call iter_* (wrap in" >&2; \
		echo "      list() for a list) and iter_trace/iter_trace_bin;" >&2; \
		echo "      the scalar oracles iter_dma_bursts and" >&2; \
		echo "      iter_data_accesses live only under tests/:" >&2; \
		[ -z "$$defs" ] || echo "$$defs" >&2; \
		[ -z "$$imports" ] || echo "$$imports" >&2; \
		[ -z "$$oracle" ] || echo "$$oracle" >&2; \
		exit 1; \
	fi; \
	echo "lint: ok (one form per trace generator)"
	@matches=$$(grep -rnIE '$(AES_TTABLE)' --exclude-dir=__pycache__ \
		src || true); \
	if [ -n "$$matches" ]; then \
		echo "lint: AES's narrow rung is the one-int round of" >&2; \
		echo "      crypto/kernels.py; the T-table loops stay gone:" >&2; \
		echo "$$matches" >&2; \
		exit 1; \
	fi; \
	echo "lint: ok (one narrow AES rung)"
	@matches=$$(grep -rnIE '$(CACHE_ACCESS)' --exclude-dir=__pycache__ \
		src || true); \
	defs=$$(grep -nE '$(CACHE_ACCESS_DEF)' src/repro/sim/cache.py || true); \
	if [ -n "$$matches$$defs" ]; then \
		echo "lint: cache-access semantics are the executor's; Cache" >&2; \
		echo "      has no access(), and CacheResult and the" >&2; \
		echo "      hierarchy's hand-rolled L1 stay gone:" >&2; \
		[ -z "$$matches" ] || echo "$$matches" >&2; \
		[ -z "$$defs" ] || echo "$$defs" >&2; \
		exit 1; \
	fi; \
	echo "lint: ok (one encoding of cache-access semantics)"
	@matches=$$(grep -nE '$(CHAIN_BODY)' $(CHAIN_ENGINES) || true); \
	if [ -n "$$matches" ]; then \
		echo "lint: gi and vlsi share ChainedTDESEngine's 3DES kernel," >&2; \
		echo "      unit IV, CBC transform and memo, install_image," >&2; \
		echo "      read_plain and line stubs (core/engine.py):" >&2; \
		echo "$$matches" >&2; \
		exit 1; \
	fi; \
	echo "lint: ok (one chained-3DES body)"
	@runs=$$(grep -nE '$(EXPERIMENT_RUN)' src/repro/runner/base.py || true); \
	tasks=$$(grep -nE '$(API_TASKS)' src/repro/api.py || true); \
	wrappers=$$(ls benchmarks/bench_e[0-9][0-9]_*.py 2>/dev/null || true); \
	if [ -n "$$runs$$tasks$$wrappers" ]; then \
		echo "lint: experiment tasks run through runner._execute_task" >&2; \
		echo "      only: no Experiment.run, no task loop in" >&2; \
		echo "      repro/api.py, no per-experiment bench wrappers:" >&2; \
		[ -z "$$runs" ] || echo "$$runs" >&2; \
		[ -z "$$tasks" ] || echo "$$tasks" >&2; \
		[ -z "$$wrappers" ] || echo "$$wrappers" >&2; \
		exit 1; \
	fi; \
	echo "lint: ok (one body runs an experiment's tasks)"
	@retired=$$(grep -rniIE '$(KUHN_RETIRED)' --include='*.py' \
		src tests examples benchmarks | grep -vE '$(AREA_CONSTANT)' \
		|| true); \
	defs=$$(grep -rnE '$(RESET_AND_STEP_DEF)' --include='*.py' \
		src/repro/attacks || true); \
	if [ -n "$$retired" ] || [ "$$(echo "$$defs" | grep -c .)" != 1 ]; then \
		echo "lint: one DS5002FP board (DallasBoard, optional scrambler)" >&2; \
		echo "      and one CipherInstructionSearch base: no" >&2; \
		echo "      ScrambledDallasBoard, _signature_of, Huffman coder or" >&2; \
		echo "      per-shape _decode_* cell-0 decoder," >&2; \
		echo "      and exactly one def reset_and_step( in attacks/:" >&2; \
		[ -z "$$retired" ] || echo "$$retired" >&2; \
		echo "$${defs:-(no def reset_and_step( found)}" >&2; \
		exit 1; \
	fi; \
	echo "lint: ok (one DS5002FP board and one search base)"
	@reads=$$(grep -rnE '$(STEP_OPCODE)' --include='*.py' \
		src/repro/attacks || true); \
	if [ -n "$$reads" ]; then \
		echo "lint: the Kuhn attacker sees the bus and the port, never" >&2; \
		echo "      the plaintext opcode of a StepEvent: no .opcode in" >&2; \
		echo "      src/repro/attacks:" >&2; \
		echo "$$reads" >&2; \
		exit 1; \
	fi; \
	echo "lint: ok (the attacker reads no StepEvent opcode)"
	@matches=$$(find $(PRICE_DIRS) -name '*.py' | sort | xargs awk \
		'FNR == 1 {f = ""} /^def /{split($$2, d, "("); f = d[1]} \
		/$(PRICE_BODY)/ {print FILENAME ":" f ":" FNR ": " $$0}' \
		| grep -vE '$(PRICE_EXEMPT)' || true); \
	if [ -n "$$matches" ]; then \
		echo "lint: price overheads through analysis.price_engines" >&2; \
		echo "      (one baseline per trace and geometry): no" >&2; \
		echo "      engine=None or engine-less system baseline, no" >&2; \
		echo "      overhead_vs( and no def _baseline outside e16.py" >&2; \
		echo "      and E18's scrambling probe:" >&2; \
		echo "$$matches" >&2; \
		exit 1; \
	fi; \
	echo "lint: ok (one pricing body)"
	@calls=$$(find src/repro -name '*.py' | sort | xargs awk \
		'FNR == 1 {c = ""} /^class /{split($$2, d, "[(:]"); c = d[1]} \
		/$(PORT_LAYER_CALL)/ {print FILENAME ":" c ":" FNR ": " $$0}' \
		| grep -vE '$(PORT_LAYER_HOME)' || true); \
	lines=$$(awk '/^class /{split($$2, d, "[(:]"); c = d[1]; f = c} \
		/^    def /{split($$2, d, "("); f = c "." d[1]} \
		/$(PORT_LINE_CALL)/ {print FILENAME ":" f ":" FNR ": " $$0}' \
		src/repro/core/engine.py | grep -E '$(GROUP_BODIES)' || true); \
	if [ -n "$$calls$$lines" ]; then \
		echo "lint: port traffic moves in groups: only MemoryPort calls" >&2; \
		echo "      the memory's and bus's read/write/transfer/tally, and" >&2; \
		echo "      the base fill_lines/_store make no per-line" >&2; \
		echo "      port.read(/port.write( call:" >&2; \
		[ -z "$$calls" ] || echo "$$calls" >&2; \
		[ -z "$$lines" ] || echo "$$lines" >&2; \
		exit 1; \
	fi; \
	echo "lint: ok (port traffic moves in groups)"
	@matches=$$(grep -rnIE '$(WHOLE_MEMORY)' --include='*.py' \
		src/repro/faults || true); \
	if [ -n "$$matches" ]; then \
		echo "lint: fault rigs copy the touched pages" >&2; \
		echo "      (MainMemory.touched_pages), never the whole memory:" >&2; \
		echo "      no dump(0, ...) or config.size under src/repro/faults:" >&2; \
		echo "$$matches" >&2; \
		exit 1; \
	fi; \
	echo "lint: ok (fault rigs copy touched pages)"

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
#            plus a two-scale bounded-memory check in forked children;
# benches    the pytest benches collect one case per registry experiment
#            (bench_experiments.py) plus the kernel benches, nothing else.
SMOKES := trace obs-bench faults-detect faults-silent kernels campaign \
	serve stream benches
SMOKE_trace         := repro.cli trace e02 --limit 0 > /dev/null
SMOKE_obs-bench     := repro.obs.bench --accesses 20000 --repeats 3
SMOKE_faults-detect := repro.cli faults integrity-stream --kinds spoof \
	replay > /dev/null
SMOKE_faults-silent := repro.cli faults stream --kinds spoof > /dev/null
SMOKE_kernels       := repro.crypto.bench_kernels --quick
SMOKE_campaign      := repro.campaign.bench --smoke
SMOKE_serve         := repro.serve.loadgen --smoke
SMOKE_stream        := repro.sim.bench_stream --smoke
SMOKE_benches       := pytest benchmarks --collect-only -q | $(PYTHON) -c \
	"import re, sys; from repro.runner import list_experiments; \
	got = {f: int(n) for f, n in re.findall(r'(\w+)\.py: (\d+)', \
	sys.stdin.read())}; print('benches collected:', got); \
	sys.exit(got.pop('bench_experiments', 0) != len(list_experiments()) \
	or not got.pop('bench_kernels', 0) or bool(got))"

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
