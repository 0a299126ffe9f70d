GO ?= go

.PHONY: build test bench bench-paper race vet docs-lint fuzz-smoke check daemon-smoke drift-smoke loc

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
# before/after speedup table. BenchmarkForestScore (RF-50 × 27 features,
# one fused call per 512-row chunk; ns/row and allocs/op) is the tree
# scoring layer's number in that set.
# It then runs the batch-vs-streaming engine benchmarks (see
# internal/core/stream_bench_test.go), whose peak-B custom metric — the
# live-heap high-water mark of a test-mode run — lands in BENCH_PR4.json.
# Finally it runs the sequential-vs-pipelined streaming benchmarks
# (BenchmarkPipeline*: CPU-bound and IO-bound source, 1 and N workers;
# peak-B heap high-water mark plus inflight-B pump buffering) into
# BENCH_PR5.json.
# The decode set (BenchmarkDecode*: netpkt.Decode's full eager stack vs
# lazy views per depth; BenchmarkSourceStage*: the chunked view source
# stage over a buffered stream and an mmap'ed file) lands in
# BENCH_PR8.json, and the watch-ingest source stage
# (BenchmarkDirSourceMmap: the daemon's rotated-capture watch) in
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
	$(GO) test -bench=BenchmarkDirSource -benchtime=5x -count=3 -run='^$$' ./internal/daemon/ \
		| $(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out BENCH_PR10.json
	$(GO) test -bench=BenchmarkAlertEncode -benchtime=2000x -count=3 -run='^$$' ./internal/daemon/ \
		| $(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out BENCH_PR15.json

# bench-paper runs the paper table/figure reproduction benchmarks once each.
bench-paper:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

vet:
	$(GO) vet ./...

# race runs the concurrency-sensitive packages (engine/cache singleflight,
# streaming engine: the core suite sweeps every dataset × chunk size ×
# execution shape — inline, staged, staged with worker fan-out — over
# in-memory and capture sources, so this is the stream equivalence gate;
# chunk pump and decoder buffer pool, refcounted
# pcap mappings under concurrent chunk release, flow assemblers, span
# tracer, benchsuite worker pool, the mlkit/linalg row-parallel
# kernels, one forest's flat node arrays scored from eight goroutines,
# and the resident daemon: pipeline lifecycle, hot swap under
# live ingest, the alert encoder against encoding/json (differential
# sweep) and its whole-line writes into healthy and failing sinks, live
# sources including mmap+lazy watch ingest with
# rotation under load and the framed feed's pooled buffers refilled
# while the staged pipeline holds earlier chunks, panic isolation
# between two pipelines, the HTTP control surface, and the lumend binary
# end to end) under the race detector. The online-learning paths ride along: the core suite's
# prequential equivalence tests sweep test-then-train streams across
# chunk sizes and execution shapes, the daemon suite exercises the
# drift-triggered background retrain racing live scoring, and the
# benchsuite suite runs the three-arm drifting prequential benchmark.
race:
	$(GO) test -race ./internal/core/... ./internal/dataset/... ./internal/pcap/... ./internal/netpkt/... ./internal/features/... ./internal/flow/... ./internal/benchsuite/... ./internal/obs/... ./internal/mlkit/... ./internal/daemon/... ./cmd/lumend/...

# docs-lint enforces the documentation floor (see doclint_test.go):
# package comments everywhere under internal/ and cmd/, doc comments on
# every exported symbol of internal/obs and internal/core, and DESIGN.md's
# op table equal to what `lumen -list-ops` prints.
docs-lint:
	$(GO) test -run TestDocLint .

# daemon-smoke boots lumend on a small replayed capture, then asserts
# that at least one JSONL alert line was written and that every pipeline
# reported a clean stop. This is the cheap end-to-end gate for the
# resident daemon path (see OPERATIONS.md).
daemon-smoke:
	@tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/lumend -pipeline examples/daemon-hot-swap/pipeline.json \
		-train F1 -train-scale 0.05 -replay-dataset F1 -replay-scale 0.05 \
		-chunk-rows 64 -listen "" \
		-alerts $$tmp/alerts.jsonl -connlog $$tmp/conn.log >$$tmp/out.txt 2>&1 \
		|| { echo "daemon-smoke: lumend failed"; cat $$tmp/out.txt; rm -rf $$tmp; exit 1; }; \
	head -1 $$tmp/alerts.jsonl | grep -q '"pipeline"' \
		|| { echo "daemon-smoke: no alert line"; cat $$tmp/out.txt; rm -rf $$tmp; exit 1; }; \
	grep -q ' stopped: ' $$tmp/out.txt \
		|| { echo "daemon-smoke: no clean shutdown"; cat $$tmp/out.txt; rm -rf $$tmp; exit 1; }; \
	echo "daemon-smoke: OK ($$(wc -l < $$tmp/alerts.jsonl) alerts, conn-log $$(wc -l < $$tmp/conn.log) lines)"; \
	rm -rf $$tmp

# drift-smoke is the end-to-end gate for the online-learning loop: it
# trains the drift-retrain example pipeline on Mirai traffic (P1), then
# replays a P1-then-P4 drifting stream — mid-replay the traffic turns
# into ARP MitM, a distribution the model has never seen — with
# drift-triggered retraining enabled. The two-sided Page-Hinkley monitor
# fires on the score collapse, the daemon refits on fresh post-drift
# rows in the background, and the candidate must pass the shadow gate
# into an auto-promoted generation before drain.
drift-smoke:
	@tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/lumend -pipeline examples/drift-retrain/pipeline.json \
		-train P1 -train-scale 0.5 -replay-dataset P1,P4 -replay-scale 1.0 \
		-chunk-rows 64 -replay-delay 15ms -listen "" \
		-retrain -retrain-fresh -retrain-min-rows 128 -retrain-cooldown 4 \
		-shadow-chunks 2 -max-disagree 1 \
		-alerts $$tmp/alerts.jsonl -metrics-out $$tmp/metrics.prom >$$tmp/out.txt 2>&1 \
		|| { echo "drift-smoke: lumend failed"; cat $$tmp/out.txt; rm -rf $$tmp; exit 1; }; \
	grep -q ' stopped: ' $$tmp/out.txt \
		|| { echo "drift-smoke: no clean shutdown"; cat $$tmp/out.txt; rm -rf $$tmp; exit 1; }; \
	grep -q 'swap promoted by auto' $$tmp/out.txt \
		|| { echo "drift-smoke: retrained model was not promoted"; cat $$tmp/out.txt; rm -rf $$tmp; exit 1; }; \
	grep -q 'lumen_retrain_total' $$tmp/metrics.prom \
		|| { echo "drift-smoke: no retrain counted"; cat $$tmp/out.txt; rm -rf $$tmp; exit 1; }; \
	echo "drift-smoke: OK ($$(grep -c . $$tmp/alerts.jsonl) alerts, $$(grep 'lumen_drift_events_total{' $$tmp/metrics.prom | head -1))"; \
	rm -rf $$tmp

# fuzz-smoke gives each fuzz target a short budget on top of its seed
# corpus: the differential decoder targets (lazy PacketView vs eager
# Decode; see internal/netpkt/view_fuzz_test.go), the model loader that
# POST /swap reaches (error, or a model that scores without panicking;
# see internal/mlkit/persist_fuzz_test.go), the feed frame parser
# every producer connection reaches (error, or exactly the packet bytes
# a length prefix within [8, MaxFrameBytes] announced; see
# internal/daemon/feed_test.go) and the alert line encoder (byte-equal
# to json.Marshal of the same Alert for any name, attack, score bits and
# integers; see internal/daemon/alert_test.go), and the pcap reader
# (buffered and mmap read paths fail closed and agree record for record;
# see internal/pcap/fuzz_test.go), and the pipeline template parser
# (error, or a pipeline that plans without panicking in both modes with
# Online off and on; see internal/algorithms/plan_test.go, which seeds it
# with the built-in templates and with A06 under decay-rate lists its
# type-check must refuse), and kitsune_features' grouping keys (for any
# two frames, struct keys equal exactly when the string keys they
# replaced are; see internal/core/ops_kitsune_test.go). Go runs one
# -fuzz pattern per invocation, so each target gets its own line. The model
# target caps minimization: shrinking one multi-kilobyte JSON envelope
# would otherwise eat the whole budget.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -fuzz=FuzzViewEthernet -fuzztime=$(FUZZTIME) -run='^$$' ./internal/netpkt/
	$(GO) test -fuzz=FuzzViewDot11 -fuzztime=$(FUZZTIME) -run='^$$' ./internal/netpkt/
	$(GO) test -fuzz=FuzzUnmarshalModel -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run='^$$' ./internal/mlkit/
	$(GO) test -fuzz=FuzzFeedFrame -fuzztime=$(FUZZTIME) -run='^$$' ./internal/daemon/
	$(GO) test -fuzz=FuzzAlertLine -fuzztime=$(FUZZTIME) -run='^$$' ./internal/daemon/
	$(GO) test -fuzz=FuzzPcapReader -fuzztime=$(FUZZTIME) -run='^$$' ./internal/pcap/
	$(GO) test -fuzz=FuzzParsePipeline -fuzztime=$(FUZZTIME) -run='^$$' ./internal/algorithms/
	$(GO) test -fuzz=FuzzKitsuneKeyEquivalence -fuzztime=$(FUZZTIME) -run='^$$' ./internal/core/

# loc prints the non-test Go line count of every package under
# internal/ and cmd/ (sub-packages counted with their parent) — the
# measure a deletion PR records before and after (ROADMAP item 5).
loc:
	@for d in internal/* cmd/*; do \
		printf '%-24s %6d\n' $$d $$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
	done

# check is the CI gate: static analysis, race-clean concurrency paths,
# the documentation lint, and a short fuzz pass over the packet decoder,
# the model loader, the feed frame parser, the alert line encoder, the
# pcap reader, the pipeline template parser and the Kitsune grouping
# keys.
check: vet race docs-lint fuzz-smoke
	$(GO) build ./...
