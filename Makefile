GO ?= go

.PHONY: build test bench bench-paper race vet fmt docs-lint fuzz-smoke faults check daemon-smoke drift-smoke prequential-smoke config-check loc pairs trace-check micro-pairs flake

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench runs the numeric-kernel and model micro-benchmarks (mlkit +
# linalg; see internal/mlkit/perf_bench_test.go) with a fixed -benchtime
# and records machine-readable results in BENCH_PR3.json under the
# "current" label via cmd/benchjson (best of -count runs per benchmark,
# which filters noisy-neighbour interference on shared machines).
# Re-run on a baseline checkout with BENCH_LABEL=baseline to fill in the
# before/after speedup table. BenchmarkForestScore (one fused call per
# 512-row chunk; ns/row and allocs/op) is the tree scoring layer's number
# in that set: a05 is the forest pkt_rf_file scores, light_tree the
# light pipelines' single tree, large an 11× forest that overflows L1.
# It then runs the batch-vs-streaming engine benchmarks (see
# internal/core/stream_bench_test.go), whose peak-B custom metric — the
# live-heap high-water mark of a test-mode run — lands in BENCH_PR4.json.
# Finally it runs the depth-0-vs-staged streaming benchmarks
# (BenchmarkPipeline*: CPU-bound and IO-bound source, depth 0 and 4;
# peak-B heap high-water mark plus inflight-B pump buffering) into
# BENCH_PR5.json.
# The decode set (BenchmarkDecode*: netpkt.Decode's full eager stack vs
# lazy views per depth; BenchmarkSourceStage*: the chunked view source
# stage over a buffered stream and an mmap'ed file) lands in
# BENCH_PR8.json, and the live ingest source stages
# (BenchmarkDirSourceMmap: the daemon's rotated-capture watch;
# BenchmarkFeedIngest: producer → framed feed → Next → ReleaseRef) in
# BENCH_PR10.json. The alert layer's own number (BenchmarkAlertEncode: a
# 512-row chunk result with scores and attacks, encoded and written to
# io.Discard; ns/alert, B/alert, allocs/alert) lands in BENCH_PR15.json.
BENCH_LABEL ?= current
bench:
	$(GO) test -bench=. -benchtime=300ms -count=3 -run='^$$' ./internal/mlkit/... \
		| $(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out BENCH_PR3.json
	$(GO) test -bench=BenchmarkStream -benchtime=1x -count=3 -run='^$$' ./internal/core/ \
		| $(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out BENCH_PR4.json
	$(GO) test -bench=BenchmarkPipeline -benchtime=5x -count=3 -run='^$$' ./internal/core/ \
		| $(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out BENCH_PR5.json
	$(GO) test -bench='BenchmarkDecode|BenchmarkSourceStage' -benchtime=300ms -count=3 -run='^$$' ./internal/dataset/ \
		| $(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out BENCH_PR8.json
	$(GO) test -bench='BenchmarkDirSource|BenchmarkFeedIngest' -benchtime=5x -count=3 -run='^$$' ./internal/daemon/ \
		| $(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out BENCH_PR10.json
	$(GO) test -bench=BenchmarkAlertEncode -benchtime=2000x -count=3 -run='^$$' ./internal/daemon/ \
		| $(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out BENCH_PR15.json

# bench-paper runs the paper table/figure reproduction benchmarks once each.
bench-paper:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

vet:
	$(GO) vet ./...

# fmt fails when any Go file in the tree is not gofmt-clean, and names
# the files.
fmt:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "fmt: not gofmt-clean:"; echo "$$out"; exit 1; }

# race runs the concurrency-sensitive packages (engine/cache singleflight,
# streaming engine: the core suite sweeps every dataset × chunk size ×
# stream depth — 0, 2 and 4 — over in-memory and capture sources, so
# this is the stream equivalence gate;
# chunk pump and decoder buffer pool, refcounted
# pcap mappings under concurrent chunk release, flow assemblers, span
# tracer, benchsuite worker pool, the mlkit/linalg row-parallel
# kernels, one forest's flat node arrays scored from eight goroutines,
# and the resident daemon: pipeline lifecycle, hot swap under
# live ingest, the alert encoder against encoding/json (differential
# sweep) and its whole-line writes into healthy and failing sinks, live
# sources including mmap+lazy watch ingest with
# rotation under load and the framed feed's refcounted slabs refilled
# while the staged pipeline holds earlier chunks, panic isolation
# between two pipelines, the HTTP control surface, and the lumend binary
# end to end) under the race detector. The online-learning paths ride along: the core suite's
# prequential equivalence tests sweep test-then-train passes over a
# batch-fitted model across chunk sizes and depths, the daemon suite exercises the
# drift-triggered background retrain racing live scoring, and the
# benchsuite suite runs the three-arm drifting prequential benchmark.
race:
	$(GO) test -race ./internal/core/... ./internal/dataset/... ./internal/pcap/... ./internal/netpkt/... ./internal/features/... ./internal/flow/... ./internal/benchsuite/... ./internal/obs/... ./internal/mlkit/... ./internal/daemon/... ./cmd/lumend/...

# docs-lint enforces the documentation floor (see doclint_test.go):
# package comments everywhere under internal/ and cmd/, doc comments on
# every exported symbol of internal/obs and internal/core, DESIGN.md's
# op table equal to what `lumen -list-ops` prints, and OPERATIONS.md's
# lumend key table equal to what the config structs' tags and comments
# render. It also runs the test-only declaration gate
# (TestDocLintNoTestOnlyDecls in testonly_test.go): every package-level
# declaration and method under internal/ has a caller in some non-test
# file of the module (cmd/, bench/ and examples/ count), satisfies an
# interface, or is on its short allow-list with a reason, and every
# unexported struct field there is read by such a file (writes, literal
# keys and atomic Add/Store do not count); the gate's own fixture
# (testdata/testonly) shows it flags a test-only helper and a
# written-only field and nothing else.
docs-lint:
	$(GO) test -run TestDocLint .

# daemon-smoke boots lumend on examples/daemon-hot-swap/lumend.json (a
# small replayed capture), then asserts that at least one JSONL alert
# line was written and that every pipeline reported a clean stop. This is
# the cheap end-to-end gate for the resident daemon path (see
# OPERATIONS.md). The file names its sinks relatively, so the binary runs
# from a scratch directory.
daemon-smoke:
	@tmp=$$(mktemp -d) && $(GO) build -o $$tmp/lumend ./cmd/lumend && \
	(cd $$tmp && ./lumend -config $(CURDIR)/examples/daemon-hot-swap/lumend.json -listen "" >out.txt 2>&1) \
		|| { echo "daemon-smoke: lumend failed"; cat $$tmp/out.txt; rm -rf $$tmp; exit 1; }; \
	head -1 $$tmp/alerts.jsonl | grep -q '"pipeline"' \
		|| { echo "daemon-smoke: no alert line"; cat $$tmp/out.txt; rm -rf $$tmp; exit 1; }; \
	grep -q ' stopped: ' $$tmp/out.txt \
		|| { echo "daemon-smoke: no clean shutdown"; cat $$tmp/out.txt; rm -rf $$tmp; exit 1; }; \
	echo "daemon-smoke: OK ($$(wc -l < $$tmp/alerts.jsonl) alerts, conn-log $$(wc -l < $$tmp/conn.log) lines)"; \
	rm -rf $$tmp

# drift-smoke is the end-to-end gate for the online-learning loop
# (examples/drift-retrain/lumend.json): it trains the drift-retrain
# example pipeline on Mirai traffic (P1), then replays a P1-then-P4
# drifting stream — mid-replay the traffic turns into ARP MitM, a
# distribution the model has never seen — with drift-triggered
# retraining enabled. The two-sided Page-Hinkley monitor fires on the
# score collapse, the daemon refits on fresh post-drift rows in the
# background, and the candidate must pass the shadow gate into an
# auto-promoted generation before drain. Beside it a connection-level
# pipeline, which scores flows as they close, replays F1 then F4: every
# pipeline in the file must count drift events
# (lumen_drift_events_total above 0), so a detector that runs over
# blocks of closed flows reaches the daemon too.
drift-smoke:
	@tmp=$$(mktemp -d) && $(GO) build -o $$tmp/lumend ./cmd/lumend && \
	(cd $$tmp && ./lumend -config $(CURDIR)/examples/drift-retrain/lumend.json -listen "" \
		-metrics-out metrics.prom >out.txt 2>&1) \
		|| { echo "drift-smoke: lumend failed"; cat $$tmp/out.txt; rm -rf $$tmp; exit 1; }; \
	grep -q ' stopped: ' $$tmp/out.txt \
		|| { echo "drift-smoke: no clean shutdown"; cat $$tmp/out.txt; rm -rf $$tmp; exit 1; }; \
	grep -q 'swap promoted by auto' $$tmp/out.txt \
		|| { echo "drift-smoke: retrained model was not promoted"; cat $$tmp/out.txt; rm -rf $$tmp; exit 1; }; \
	grep -q 'lumen_retrain_total' $$tmp/metrics.prom \
		|| { echo "drift-smoke: no retrain counted"; cat $$tmp/out.txt; rm -rf $$tmp; exit 1; }; \
	for p in $$(sed -n 's/^lumend: pipeline "\(.*\)" stopped: .*/\1/p' $$tmp/out.txt); do \
		grep -Eq "^lumen_drift_events_total\{pipeline=\"$$p\"\} [1-9]" $$tmp/metrics.prom \
			|| { echo "drift-smoke: pipeline $$p counted no drift event"; cat $$tmp/out.txt; rm -rf $$tmp; exit 1; }; \
	done; \
	test $$(grep -c ' stopped: ' $$tmp/out.txt) = $$(grep -c '"template"' $(CURDIR)/examples/drift-retrain/lumend.json) \
		|| { echo "drift-smoke: not every pipeline stopped cleanly"; cat $$tmp/out.txt; rm -rf $$tmp; exit 1; }; \
	echo "drift-smoke: OK ($$(grep -c . $$tmp/alerts.jsonl) alerts, $$(grep 'lumen_drift_events_total{' $$tmp/metrics.prom | tr '\n' ' '))"; \
	rm -rf $$tmp

# prequential-smoke runs the three-arm drifting benchmark (lumenbench
# -prequential at scale 0.3) for a model that partial-fits natively
# (mlp), a batch-only one (random_forest) and a thresholded batch
# detector (gmm), whose online arm must score without learning rather
# than fail. Each report must hold the static, online and retrain arms,
# in that order, and every arm must score every stream row.
prequential-smoke:
	@tmp=$$(mktemp -d) && $(GO) build -o $$tmp/lumenbench ./cmd/lumenbench && \
	for m in mlp random_forest gmm; do \
		$$tmp/lumenbench -prequential $$tmp/$$m.json -preq-model $$m -scale 0.3 >$$tmp/out.txt 2>&1 \
			|| { echo "prequential-smoke: $$m failed"; cat $$tmp/out.txt; rm -rf $$tmp; exit 1; }; \
		rows=$$(sed -n 's/^ *"stream_rows": \([0-9]*\),$$/\1/p' $$tmp/$$m.json); \
		arms=$$(grep -o '"name": "[a-z]*"' $$tmp/$$m.json | cut -d'"' -f4 | tr '\n' ' '); \
		verdicts=$$(grep -o '"verdicts": [0-9]*' $$tmp/$$m.json | cut -d' ' -f2 | tr '\n' ' '); \
		test -n "$$rows" && test "$$arms" = "static online retrain " && test "$$verdicts" = "$$rows $$rows $$rows " \
			|| { echo "prequential-smoke: $$m: arms '$$arms', verdicts '$$verdicts', stream rows '$$rows'"; rm -rf $$tmp; exit 1; }; \
		echo "prequential-smoke: $$m OK ($$rows rows scored in each arm)"; \
	done; rm -rf $$tmp

# config-check type-checks every example daemon file without starting
# anything: `lumend -check` prints each pipeline's stream plan.
config-check:
	@tmp=$$(mktemp -d) && $(GO) build -o $$tmp/lumend ./cmd/lumend && \
	for f in examples/*/lumend.json; do \
		$$tmp/lumend -config $$f -check || { echo "config-check: $$f failed"; rm -rf $$tmp; exit 1; }; \
	done; rm -rf $$tmp

# fuzz-smoke gives each fuzz target a short budget on top of its seed
# corpus. Go runs one -fuzz pattern per invocation, so each target gets
# its own line; what each one holds:
#   FuzzViewEthernet, FuzzViewDot11  lazy PacketView == the eager reference walk refDecode: Materialize (= Decode), and
#                        DNS()/HTTP()/MQTT() value for value, at every decode hint (netpkt/view_fuzz_test.go)
#   FuzzUnmarshalModel   error, or a model that scores without panicking (mlkit/persist_fuzz_test.go);
#                        minimization capped: shrinking a multi-kilobyte envelope would eat the budget
#   FuzzFeedFrame        the in-place slab framer: error, or exactly the bytes a length prefix in [8, MaxFrameBytes] announced, clean end
#                        only on a frame boundary, and frame for frame what the per-frame reader it replaced returns (daemon/feed_test.go)
#   FuzzAlertLine        the append encoder == json.Marshal of the same Alert (daemon/alert_test.go)
#   FuzzDaemonConfig     error, or a config whose every pipeline plans as `lumend -check` does (daemon/config_test.go)
#   FuzzPcapReader       buffered and mmap readers fail closed and agree record for record (pcap/fuzz_test.go)
#   FuzzParsePipeline    error, or a template that plans in both modes (algorithms/plan_test.go)
#   FuzzConnLogLine      the conn-log append encoder == the fmt row it replaced (flow/flow_oracle_test.go)
#   FuzzReleaseOrder     flows released at random cuts, then ReleaseAll's, == the whole-table reference in canonical order, all closed; each cut
#                        kept by value then recycled, so a reused flow keeping any earlier state parts from the reference (flow/release_test.go)
#   FuzzKitsuneKeyEquivalence  struct keys equal exactly when the string keys they replaced are (core/ops_kitsune_test.go)
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -fuzz=FuzzViewEthernet -fuzztime=$(FUZZTIME) -run='^$$' ./internal/netpkt/
	$(GO) test -fuzz=FuzzViewDot11 -fuzztime=$(FUZZTIME) -run='^$$' ./internal/netpkt/
	$(GO) test -fuzz=FuzzUnmarshalModel -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run='^$$' ./internal/mlkit/
	$(GO) test -fuzz=FuzzFeedFrame -fuzztime=$(FUZZTIME) -run='^$$' ./internal/daemon/
	$(GO) test -fuzz=FuzzAlertLine -fuzztime=$(FUZZTIME) -run='^$$' ./internal/daemon/
	$(GO) test -fuzz=FuzzDaemonConfig -fuzztime=$(FUZZTIME) -run='^$$' ./internal/daemon/
	$(GO) test -fuzz=FuzzPcapReader -fuzztime=$(FUZZTIME) -run='^$$' ./internal/pcap/
	$(GO) test -fuzz=FuzzParsePipeline -fuzztime=$(FUZZTIME) -run='^$$' ./internal/algorithms/
	$(GO) test -fuzz=FuzzConnLogLine -fuzztime=$(FUZZTIME) -run='^$$' ./internal/flow/
	$(GO) test -fuzz=FuzzReleaseOrder -fuzztime=$(FUZZTIME) -run='^$$' ./internal/flow/
	$(GO) test -fuzz=FuzzKitsuneKeyEquivalence -fuzztime=$(FUZZTIME) -run='^$$' ./internal/core/

# loc prints the non-test Go line count of every package under
# internal/ and cmd/ (sub-packages counted with their parent) — the
# measure a deletion PR records before and after (ROADMAP item 5).
loc:
	@for d in internal/* cmd/*; do \
		printf '%-24s %6d\n' $$d $$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
	done

# pairs measures the working tree against a base revision on one
# end-to-end workload, the way a change that claims a gain is judged:
#   make pairs W=flow_conn_file N=10 BASE=HEAD~1 [SEED=7]
# It builds bench/cmd/lumenperf twice into a temp dir outside bench/ (the
# base from `git archive $(BASE)`, which touches no repository state; the
# change from the working tree), runs N pairs alternating which side goes
# first, never two at once, and hands the two streams of result lines to
# `benchjson -pairs`, which prints per end-to-end metric both medians,
# both quartile ranges, the pairs each side won, the BENCHMARK.json
# bound and a verdict.
W ?= flow_conn_file
N ?= 10
BASE ?= HEAD
SEED ?= 1
pairs:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && mkdir $$tmp/src $$tmp/out && \
	git archive $(BASE) | tar -x -C $$tmp/src && \
	(cd $$tmp/src && $(GO) build -o $$tmp/perf_base ./bench/cmd/lumenperf) && \
	$(GO) build -o $$tmp/perf_change ./bench/cmd/lumenperf && \
	echo "pairs: $(W), seed $(SEED), base $$(git rev-parse --short $(BASE)) against the working tree" && \
	for i in $$(seq 1 $(N)); do \
		order="base change"; [ $$((i % 2)) = 0 ] && order="change base"; \
		for side in $$order; do \
			$$tmp/perf_$$side -dir $$tmp/out -workload $(W) -seed $(SEED) -trace 0 > $$tmp/run.txt 2>&1 \
				|| { echo "pairs: $$side failed in pair $$i"; tail -5 $$tmp/run.txt; exit 1; }; \
			tail -1 $$tmp/run.txt >> $$tmp/$$side.jsonl; \
		done; \
	done && \
	$(GO) run ./cmd/benchjson -pairs -spec BENCHMARK.json -base $$tmp/base.jsonl -change $$tmp/change.jsonl

# trace-check makes the traced runs (-trace 1) of the end-to-end
# benchmark that pairs, which runs -trace 0 only, never makes:
#   make trace-check [W=feed_closed] [SEED=1]
# A traced run ends an isolated RunStream by draining a wrapped source at
# a packet count, runs a feed workload's open-loop segment, and fails
# when tracing changes the plan or the verdicts. trace-check builds
# bench/cmd/lumenperf from the working tree into a temp dir outside
# bench/, as pairs does, runs it once per workload (W=all, its default
# here, for every workload lumenperf -list names), prints each run's last
# lines and its exit code, and fails when any run exits non-zero. Not
# part of check: on two cores, with the build cached, the six runs took
# 34 s (feed_closed 9.5 s).
trace-check: W = all
trace-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && mkdir $$tmp/out && \
	$(GO) build -o $$tmp/perf ./bench/cmd/lumenperf || exit 1; \
	ws="$(W)"; [ "$$ws" = all ] && ws=$$($$tmp/perf -list | cut -d' ' -f1); \
	failed=""; for w in $$ws; do \
		$$tmp/perf -dir $$tmp/out -workload $$w -seed $(SEED) -trace 1 > $$tmp/run.txt 2>&1; code=$$?; \
		echo "trace-check: $$w exit $$code"; tail -3 $$tmp/run.txt | cut -c1-160; \
		[ $$code = 0 ] || failed="$$failed $$w"; \
	done; \
	[ -z "$$failed" ] || { echo "trace-check: failed:$$failed"; exit 1; }

# micro-pairs is pairs for one package's micro-benchmarks, for a change
# below the end-to-end noise (a kernel's code generation):
#   make micro-pairs PKG=./internal/mlkit B='BenchmarkForestScore' N=10 BASE=HEAD~1 [ARGS='-test.cpu 1'] [RUN='taskset -c 1']
# It builds the package's test binary at BASE (from `git archive`, as
# pairs does) and from the working tree, runs each from its package
# directory N times at 200 ms a benchmark (ARGS='-test.benchtime 1s'
# overrides that; RUN is a prefix, e.g. a CPU pin), alternating which
# goes first, and hands both outputs to `benchjson -micro`, which judges
# them as pairs does: per sub-benchmark and per unit — ns/op, and B/op
# and allocs/op where both sides report them — both medians and quartile
# ranges, the runs each side won and a verdict. A result only one side
# has (a benchmark the base predates) is listed as "only in base" or
# "only in change".
PKG ?= ./internal/mlkit
B ?= .
micro-pairs:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && mkdir $$tmp/src && \
	git archive $(BASE) | tar -x -C $$tmp/src && \
	(cd $$tmp/src && $(GO) test -c -o $$tmp/base.test $(PKG)) && \
	$(GO) test -c -o $$tmp/change.test $(PKG) && \
	echo "micro-pairs: $(PKG) -bench '$(B)', base $$(git rev-parse --short $(BASE)) against the working tree" && \
	for i in $$(seq 1 $(N)); do \
		order="base change"; [ $$((i % 2)) = 0 ] && order="change base"; \
		for side in $$order; do \
			dir=$(PKG); [ $$side = base ] && dir=$$tmp/src/$(PKG); \
			(cd $$dir && $(RUN) $$tmp/$$side.test -test.run '^$$' -test.bench '$(B)' -test.benchtime 200ms $(ARGS)) >> $$tmp/$$side.txt \
				|| { echo "micro-pairs: $$side failed in pair $$i"; tail -5 $$tmp/$$side.txt; exit 1; }; \
		done; \
	done && \
	$(GO) run ./cmd/benchjson -micro -base $$tmp/base.txt -change $$tmp/change.txt

# faults runs the fault-injection tests under the race detector: a panic
# on each stream stage (the pump's source goroutine, the ops stage at
# every depth, the sink), the unwind that releases every chunk and stops
# every stage goroutine on any failure, a capture truncated under its
# mapping faulting into that unwind instead of a SIGBUS, and a daemon
# tenant that panics or reads a truncated capture mid-pass failing alone
# while its neighbour keeps serving.
faults:
	$(GO) test -race -run 'Panic|Unwind|FailsAlone' ./internal/core/ ./internal/daemon/ ./internal/dataset/

# check is the CI gate: static analysis, gofmt, race-clean concurrency paths,
# the documentation lint, the example daemon files, the drift-retrain
# loop end to end (drift-smoke), the prequential benchmark's three arms
# for a native, a batch and a thresholded batch model
# (prequential-smoke), a short fuzz pass
# over every byte-facing parser (listed at fuzz-smoke), and the fault
# injection tests.
check: vet fmt race docs-lint config-check drift-smoke prequential-smoke fuzz-smoke faults
	$(GO) build ./...

# flake counts how often one test fails when each run is a process of
# its own (no runtime cache or pool warmed by the tests before it):
#   make flake T=TestSeedDeterminesInputs P=./bench/harness N=40
# It builds P's test binary once into a temp dir, runs it N times from
# P's directory with -test.run '^T$', and prints how many runs failed.
P ?= .
flake:
	@test -n "$(T)" || { echo "flake: set T to a test name"; exit 1; }
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) test -c -o $$tmp/flake.test $(P) && \
	fails=0 && for i in $$(seq 1 $(N)); do \
		(cd $(P) && $$tmp/flake.test -test.run '^$(T)$$' -test.count 1 > $$tmp/run.txt 2>&1) || fails=$$((fails + 1)); \
	done; \
	echo "flake: $(T) in $(P): $$fails of $(N) runs failed"
