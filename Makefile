# Targets mirror .github/workflows/ci.yml one-for-one so local runs and CI
# cannot drift: each CI job invokes exactly one of these.

GO ?= go

# Packages fast enough for the 1-iteration benchmark smoke run.
BENCH_PKGS = ./internal/codec/ ./internal/vision/ ./internal/tuner/ \
             ./internal/nn/ ./internal/infer/ ./internal/runner/ ./internal/container/ \
             ./internal/store/

.PHONY: all build test test-short test-fma test-portable bench bench-codec bench-codec-smoke bench-cluster bench-cluster-smoke bench-infer bench-infer-smoke bench-ingest bench-ingest-smoke bench-e2e bench-gate size docs-lint wire-smoke chaos-smoke obs-smoke split-smoke anchors-stress fmt vet lint sievelint reach fuzz-smoke vuln ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet: the repo's own invariant analyzers always run
# (self-hosted, no downloads needed), then staticcheck. The staticcheck
# version is pinned to 2025.1 — the same version CI installs — so local runs
# and CI agree on the finding set:
#   go install honnef.co/go/tools/cmd/staticcheck@2025.1
# When staticcheck is absent the target degrades to a notice locally but
# FAILS under CI=true, so the CI job can never silently skip it.
lint: sievelint
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif [ "$$CI" = "true" ]; then \
		echo "lint: staticcheck missing in CI (install honnef.co/go/tools/cmd/staticcheck@2025.1)"; exit 1; \
	else \
		echo "lint: staticcheck not installed, skipping locally (go vet runs separately)"; \
	fi

# The repo's invariant-enforcing analyzer suite (see internal/analysis and
# cmd/sievelint): determinism (detclock, detmap), zero-alloc hot paths
# (noalloc), wire-enum exhaustiveness (wireexhaustive) and sentinel-error
# hygiene (sentinel). Exits non-zero on any finding.
sievelint:
	$(GO) run ./cmd/sievelint ./...

# No package that only an example (or nothing) reaches: every internal/
# package must be imported, directly or transitively, from cmd/, bench/ or
# the root package. internal/analysis/analysistest is the one allowed test
# helper (only the analyzers' own tests import it).
reach:
	@reached="$$($(GO) list -deps ./cmd/... ./bench .)"; \
	for p in $$($(GO) list ./internal/...); do \
		[ "$$p" = sieve/internal/analysis/analysistest ] && continue; \
		echo "$$reached" | grep -qx "$$p" || orphans="$$orphans $$p"; \
	done; \
	if [ -n "$$orphans" ]; then \
		echo "reach: imported by nothing under cmd/, bench/ or the root package:$$orphans"; exit 1; \
	fi

# Seed-corpus pass for every native fuzz target plus a short live fuzz of
# each — catches targets that no longer compile and regressions on the
# corpus, while staying CI-sized. Longer runs: go test -fuzz=FuzzX ./pkg.
fuzz-smoke:
	$(GO) test -run 'Fuzz' -count=1 ./internal/wire/ ./internal/codec/ ./internal/transform/ ./internal/frame/ ./internal/nn/ ./internal/bitstream/ ./internal/container/ ./internal/faultplan/ ./internal/telemetry/ ./internal/store/
	$(GO) test -run='^$$' -fuzz=FuzzReadMessage -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/faultplan/
	$(GO) test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=10s ./internal/codec/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeMatchesReference -fuzztime=10s ./internal/codec/
	$(GO) test -run='^$$' -fuzz=FuzzStoreMatchesReference -fuzztime=10s ./internal/codec/
	$(GO) test -run='^$$' -fuzz=FuzzEncodeGlueMatchesReference -fuzztime=10s ./internal/codec/
	$(GO) test -run='^$$' -fuzz=FuzzMotionSearchMatchesReference -fuzztime=10s ./internal/codec/
	$(GO) test -run='^$$' -fuzz=FuzzAnalyzeMatchesReference -fuzztime=10s ./internal/codec/
	$(GO) test -run='^$$' -fuzz=FuzzReaderMatchesReference -fuzztime=10s ./internal/bitstream/
	$(GO) test -run='^$$' -fuzz=FuzzWriterMatchesReference -fuzztime=10s ./internal/bitstream/
	$(GO) test -run='^$$' -fuzz=FuzzContainerReader -fuzztime=10s ./internal/container/
	$(GO) test -run='^$$' -fuzz=FuzzBufferMatchesReference -fuzztime=10s ./internal/container/
	$(GO) test -run='^$$' -fuzz=FuzzTransformMatchesReference -fuzztime=10s ./internal/transform/
	$(GO) test -run='^$$' -fuzz=FuzzSADMatchesReference -fuzztime=10s ./internal/frame/
	$(GO) test -run='^$$' -fuzz=FuzzSADx4MatchesReference -fuzztime=10s ./internal/frame/
	$(GO) test -run='^$$' -fuzz=FuzzConvMatchesReference -fuzztime=10s ./internal/nn/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeActivationRecord -fuzztime=10s ./internal/nn/
	$(GO) test -run='^$$' -fuzz=FuzzReLUMatchesReference -fuzztime=10s ./internal/nn/
	$(GO) test -run='^$$' -fuzz=FuzzExpositionRoundTrip -fuzztime=10s ./internal/telemetry/
	$(GO) test -run='^$$' -fuzz=FuzzParseExposition -fuzztime=10s ./internal/telemetry/
	$(GO) test -run='^$$' -fuzz=FuzzSummarizeChrome -fuzztime=10s ./internal/telemetry/
	$(GO) test -run='^$$' -fuzz=FuzzApplyDelta -fuzztime=10s ./internal/store/
	$(GO) test -run='^$$' -fuzz=FuzzQueryMatchesTrack -fuzztime=10s ./internal/store/
	$(GO) test -run='^$$' -fuzz=FuzzLoadResultsDB -fuzztime=10s ./internal/store/

# Known-vulnerability scan. govulncheck needs network access for the vuln
# DB, so it runs as its own CI job; locally it degrades to a notice unless
# CI=true (install: go install golang.org/x/vuln/cmd/govulncheck@v1.1.4).
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	elif [ "$$CI" = "true" ]; then \
		echo "vuln: govulncheck missing in CI (install golang.org/x/vuln/cmd/govulncheck@v1.1.4)"; exit 1; \
	else \
		echo "vuln: govulncheck not installed, skipping locally"; \
	fi

# Fails (and lists the files) if anything is not gofmt-clean.
fmt:
	@files="$$(gofmt -l .)"; \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

# Tier-1: the full suite, the slow figure/table regressions and every
# other testing.Short()-gated test at full size (~2.5 min on 2 vCPUs).
test:
	$(GO) test ./...

# CI-sized suite with the race detector; every concurrency path in the
# evaluation engine is exercised at reduced scale.
test-short:
	$(GO) test -short -race ./...

# Neither the bitstream nor the detections may depend on FMA: a fused a*b+c
# rounds once where the golden streams, the trained weights and
# bench/expected.json's counts were recorded rounding twice. Three checks,
# because go1.24 does not fuse on amd64 even at GOAMD64=v3 (so the first one
# only guards a toolchain that starts to): the golden fixtures and the
# kernel-vs-reference tests under GOAMD64=v3 (needs AVX2+FMA); the arm64
# build — a target that does fuse — of the encoder's transform, the detector
# (internal/nn) and its input path (internal/frame) must contain no fused
# multiply-add in either precision, which holds only while every product
# there keeps its explicit float32()/float64() conversion (that build is
# also what compiles the Go kernels the amd64 assembly replaces); and no
# amd64 assembly kernel (internal/**/*_amd64.s) may name a fused
# multiply-add instruction. The same grep holds the AVX2 kernels (an amd64
# assembly file that names a Y register) to two rules no bit-exact test can
# see: every instruction on an X or Y register is VEX-encoded (its mnemonic
# starts with V) and every RET directly follows a VZEROUPPER. One legacy-SSE
# instruction beside live YMM state, or a return that leaves it live for the
# SSE2 kernels that run next, costs a state transition per call — the
# inverse read 1 800 ns instead of 58 with one CVTSL2SD — and the results
# stay exact.
FMA_FREE_PKGS = ./internal/transform/ ./internal/nn/ ./internal/frame/

test-fma:
	GOAMD64=v3 $(GO) test -count=1 $(FMA_FREE_PKGS) ./internal/codec/
	@fused="$$(GOARCH=arm64 $(GO) build -gcflags=-S $(FMA_FREE_PKGS) 2>&1 | grep -E 'FN?M(ADD|SUB)[SD]' || true)"; \
	if [ -n "$$fused" ]; then \
		echo "test-fma: the arm64 build fuses a multiply-add (a product lost its float32()/float64()):"; \
		echo "$$fused"; exit 1; \
	fi
	@fused="$$(find internal -name '*_amd64.s' -exec grep -HnE 'VFN?M(ADD|SUB)' {} + || true)"; \
	if [ -n "$$fused" ]; then \
		echo "test-fma: an amd64 assembly kernel uses a fused multiply-add:"; \
		echo "$$fused"; exit 1; \
	fi
	@bad="$$(grep -lE '(^|[^A-Za-z0-9_])Y[0-9]+' $$(find internal -name '*_amd64.s') | xargs -r awk '\
		FNR == 1 { prev = "" } \
		{ sub(/\/\/.*/, ""); n = split($$0, st, ";"); \
		  for (i = 1; i <= n; i++) { s = st[i]; sub(/\\$$/, "", s); gsub(/^[ \t]+|[ \t]+$$/, "", s); \
		    if (s == "" || s ~ /^#/ || s ~ /^[A-Za-z0-9_]+:$$/) continue; \
		    split(s, w, /[ \t]+/); op = w[1]; \
		    if (op ~ /\(/) continue; \
		    if (op !~ /^V/ && s ~ /(^|[^A-Za-z0-9_])[XY][0-9]+([^0-9]|$$)/) print FILENAME ":" FNR ": not VEX-encoded: " s; \
		    if (op == "RET" && prev != "VZEROUPPER") print FILENAME ":" FNR ": RET without VZEROUPPER"; \
		    prev = op } }')"; \
	if [ -n "$$bad" ]; then \
		echo "test-fma: an AVX2 kernel mixes in legacy SSE or returns without VZEROUPPER:"; \
		echo "$$bad"; exit 1; \
	fi

# The portable path run, not only compiled: the packages with amd64
# assembly (nn, transform, frame) and the codec, bitstream and container
# around them, tested as a 32-bit x86 build, where haveSSE2 and cpu.AVX2
# are false and every golden fixture and oracle test goes through the Go
# kernels that non-amd64 builds ship (SADx4's four sadRowsGo sums
# included).
PORTABLE_PKGS = ./internal/nn/ ./internal/codec/ ./internal/bitstream/ \
                ./internal/transform/ ./internal/frame/ ./internal/container/

test-portable:
	GOARCH=386 $(GO) test -count=1 $(PORTABLE_PKGS)

# One-iteration smoke run: benchmarks must still compile and complete.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x $(BENCH_PKGS)

# Codec hot-path micro-benchmarks: steady-state encode (BenchmarkEncodeQuiet
# is the content bench/'s edge_quiet encodes), decode (BenchmarkIFrameDecode
# is the I-frames bench/'s archive_scan decodes), analyze (BenchmarkAnalyze,
# the cost analysis of that edge_quiet content), the bounded
# SAD, the motion search at the frame's right edge and corner (/padded, the
# encoder's, vs /clamped, the oracle), and the kernels under them (DCT
# pair, quantiser, 16×16 SAD, the four-candidate SAD at 16×16 and 8×8;
# each as /kernel, what Forward, Inverse, Quantize, SAD and SADx4 run — the
# assembly on amd64, AVX2 where the CPU has it — and /go, the Go kernel).
# -benchmem:
# allocs/op must read 0 on every row. ns/op here tells which kernel moved;
# wall-clock claims are made with bench/ (make bench-e2e), on alternated
# parent/change pairs — the reference box has 2 vCPUs and a run-to-run
# spread of about a tenth. CI runs the same selection with -benchtime=1x so
# the hot path cannot silently stop compiling as a benchmark.
BENCH_CODEC = '^(BenchmarkEncodeP|BenchmarkEncodeQuiet|BenchmarkDecodeInto|BenchmarkIFrameDecode|BenchmarkAnalyze|BenchmarkSADBounded|BenchmarkMotionSearchEdge)'

bench-codec:
	$(GO) test -run='^$$' -bench=$(BENCH_CODEC) -benchmem ./internal/codec/
	$(GO) test -run='^$$' -bench='^(BenchmarkForwardDCT|BenchmarkInverseDCT|BenchmarkQuantize)' -benchmem ./internal/transform/
	$(GO) test -run='^$$' -bench='^(BenchmarkSAD16x16|BenchmarkSADx4)' -benchmem ./internal/frame/

bench-codec-smoke:
	$(GO) test -run='^$$' -bench=$(BENCH_CODEC) -benchtime=1x -benchmem ./internal/codec/
	$(GO) test -run='^$$' -bench='^(BenchmarkForwardDCT|BenchmarkInverseDCT|BenchmarkQuantize)' -benchtime=1x -benchmem ./internal/transform/
	$(GO) test -run='^$$' -bench='^(BenchmarkSAD16x16|BenchmarkSADx4)' -benchtime=1x -benchmem ./internal/frame/

# Multi-site cluster micro-benchmark: feeds/sec for a fixed 4-camera fleet
# at K=1,2,4 edge sites (encode + shard bookkeeping + uplink metering +
# edge archival + cloud merge). The read is the sharding plane's overhead as
# K grows, not a speedup. CI runs the 1-iteration smoke
# variant so the cluster path cannot silently stop compiling as a benchmark.
bench-cluster:
	$(GO) test -run='^$$' -bench='^BenchmarkClusterSites' -benchmem .

bench-cluster-smoke:
	$(GO) test -run='^$$' -bench='^BenchmarkClusterSites' -benchtime=1x -benchmem .

# Shared-inference micro-benchmarks: ns/frame of the batched detect path at
# batch 1/4/16 vs the legacy per-frame forward (ns/frame must not rise with
# the batch size), each convolution of the detector on its own at the
# bench's 96×96 geometry in ns per multiply-accumulate (which layer moved;
# /kernel is what forwardItem runs — the SSE2 kernels on amd64 — and /go
# the Go kernels), the ReLU over conv1's output (BenchmarkReLU: /kernel,
# /go), the input conversion of a 320×240 frame into the 96×96
# item one plane at a time (BenchmarkFromYUV: /luma, /chroma), plus the
# plane's batch-of-1 scheduling round trip. allocs/op must read 0 for the
# batchN variants, the conversion and the round trip — allocations are the
# regression gate here; wall-clock claims are made with bench/. CI runs the
# 1-iteration smoke variant so the batched path cannot silently stop
# compiling as a benchmark.
BENCH_INFER = '^(BenchmarkInferBatch|BenchmarkConvLayers|BenchmarkReLU|BenchmarkFromYUV)'

bench-infer:
	$(GO) test -run='^$$' -bench=$(BENCH_INFER) -benchmem ./internal/nn/
	$(GO) test -run='^$$' -bench='^BenchmarkPlaneRoundTrip' -benchmem ./internal/infer/

bench-infer-smoke:
	$(GO) test -run='^$$' -bench=$(BENCH_INFER) -benchtime=1x -benchmem ./internal/nn/
	$(GO) test -run='^$$' -bench='^BenchmarkPlaneRoundTrip' -benchtime=1x -benchmem ./internal/infer/

# Wire ingest micro-benchmark: the SVWP path (framing + raw-pixel copy
# over an in-memory transport + server-side decode) vs adding the same
# source in-process — the delta is pure ingest-plane overhead. CI runs
# the 1-iteration smoke variant.
bench-ingest:
	$(GO) test -run='^$$' -bench='^BenchmarkWireIngest' -benchmem .

bench-ingest-smoke:
	$(GO) test -run='^$$' -bench='^BenchmarkWireIngest' -benchtime=1x -benchmem .

# Wire-protocol smoke: every SVWP test (handshake, equivalence,
# reconnect-resume, overload policies, admission, quotas) under the race
# detector, plus the spec lint below.
wire-smoke:
	$(GO) test -race -run '^(TestWire|TestPusher)' -count=1 .

# Chaos smoke: every fault-injection and recovery path under the race
# detector — scripted site crashes with EdgeStore replay failover
# (byte-identical to the fault-free run), uplink partition/heal, load-skewed
# placement, mid-run cloud queryability, pusher reconnect backoff, and the
# faultplan/simnet unit suites.
chaos-smoke:
	$(GO) test -race -run '^(TestClusterFailover|TestClusterView|TestClusterPartition|TestClusterLoadSkew|TestClusterUnseekable|TestPusherRunRetry)' -count=1 .
	$(GO) test -race -count=1 ./internal/faultplan/
	$(GO) test -race -run '^(TestFailHeal|TestDegrade)' -count=1 ./internal/simnet/
	$(GO) test -race -run '^TestCoordinator' -count=1 ./internal/cluster/

# Observability smoke: the telemetry plane's equivalence and determinism
# suite under the race detector (merged results byte-identical with
# tracing on vs off, traces byte-identical run to run including under
# failover, /metrics scrapable mid-run, a hub's and a cluster's registry
# holding their inference, split and ingest series), then the CLI round trip — a
# short traced cluster run whose trace must parse back through
# `sieve trace`.
obs-smoke:
	$(GO) test -race -run '^(TestClusterTelemetryEquivalence|TestClusterTraceDeterminism|TestClusterFailoverTraceDeterminism|TestClusterSnapshotConcurrentMidRun|TestDebugEndpointScrapesMidRun|TestSessionTelemetryStandalone|TestOwnerRegistryHoldsPlaneSeries)' -count=1 .
	$(GO) run ./cmd/sieve cluster -feeds 4 -sites 2 -seconds 4 -detect=false -trace obs_trace.json -debug-addr 127.0.0.1:0 >/dev/null
	$(GO) run ./cmd/sieve trace obs_trace.json
	rm -f obs_trace.json

# Split-inference smoke: the k-sweep equivalence suite under the race
# detector — merged results byte-identical to the all-edge flat run at
# every cut, with per-site auto tuning, under a scripted linkdown/degrade
# fault plan, and under a site crash (the adopted feed runs on its
# adoptive site's plane and counts there) — plus the activation codec, partition-model
# and plane-level split tests (including the zero-alloc pin on the split
# detect path).
split-smoke:
	$(GO) test -race -run '^(TestClusterSplit|TestClusterBatchedInferenceEquivalence)' -short -count=1 .
	$(GO) test -race -run '^(TestActivationRecord|TestSplitForward|TestDetectBatchSplit|TestEvalCut|TestPartition)' -short -count=1 ./internal/nn/
	$(GO) test -race -run '^TestSplitPlane' -count=1 ./internal/infer/

# Equivalence anchors under stress: the detector's batched, split and
# sharded equivalence tests, the hub plane's no-hang anchors (a batch-4
# plane with fewer workers than feeds must finish; a stalled feed must not
# hold a sibling's detections), the frame-boundary hand-off (a feed's
# events reach the consumer while it runs), the cluster's failover (the
# merged view equals the fault-free one, and the failover record is the
# same in every run: a crash lands on its trigger frame), trace,
# telemetry (after a crash too: ClusterStats = registry sums = delivered
# detections) and wire-admission anchors, the
# partition anchor (the cloud's view is exactly what crossed the uplink:
# stale under a partition, level with the flat run once it heals), and the
# session's detect-on-reconstruction guard (labels equal the archive's,
# stream bytes equal a detector-less encode), repeated at several
# GOMAXPROCS settings under the race detector, so an anchor that holds
# only on one schedule fails here.
ANCHORS = '^(TestClusterBatchedInferenceEquivalence|TestHubBatchedInferenceEquivalence|TestPlaneReservationWindow|TestHubStalledFeedDoesNotHoldDetections|TestEventsReachConsumerAtFrameBoundary|TestClusterSplitEquivalence|TestClusterShardedRunEquivalence|TestClusterFailoverEquivalence|TestClusterFailoverRecordDeterministic|TestClusterFailoverTraceDeterminism|TestClusterTelemetryEquivalence|TestWireClusterEquivalence|TestClusterUnseekableFeedReplaysTail|TestClusterPartitionDegradesThenHeals|TestSessionDetectsWhatTheArchiveDecodes)$$'

anchors-stress:
	$(GO) test -race -short -count=3 -cpu 1,2,4 -run $(ANCHORS) .

# Docs lint: PROTOCOL.md is normative — these tests parse its
# message-type, error-code, drain and close tables and fail when they
# disagree with the internal/wire constants (in either direction), and the
# same discipline covers PROTOCOL.md's SVAR activation-record layout
# against the internal/nn codec constants. Then every `go run ./<dir>` and
# every backticked cmd/ or examples/ path in the guides must exist, and
# every ```go snippet in README.md must name the Example function in
# example_test.go that runs it.
DOC_GUIDES = README.md DESIGN.md .claude/skills/verify/SKILL.md
docs-lint:
	$(GO) test -run '^TestSpec' -count=1 ./internal/wire/ ./internal/nn/
	@for p in $$(grep -ohE 'go run \./[A-Za-z0-9_./-]+|`(cmd|examples)/[^`[:space:]]*`' $(DOC_GUIDES) \
		| sed -e 's|^go run \./||' -e 's/`//g' | sort -u); do \
		[ -e "$$p" ] || { echo "docs-lint: $$p does not exist, but one of $(DOC_GUIDES) names it"; exit 1; }; \
	done
	@for ex in $$(awk '/^```go/ { in_go = 1; named = 0; next } \
		in_go && /^```/ { in_go = 0; if (!named) print "unnamed:" NR; next } \
		in_go { while (match($$0, /Example[A-Za-z_]+/)) { print substr($$0, RSTART, RLENGTH); named = 1; $$0 = substr($$0, RSTART + RLENGTH) } }' README.md); do \
		case "$$ex" in unnamed:*) echo "docs-lint: the go snippet ending at README.md:$${ex#unnamed:} names no Example function"; exit 1;; esac; \
		grep -q "^func $$ex()" example_test.go || { echo "docs-lint: README.md names $$ex, which example_test.go does not define"; exit 1; }; \
	done

# The repo's end-to-end benchmark (BENCHMARK.json, bench/README.md): four
# workloads through the public API with the detector on; compare two runs
# with `go run ./bench compare base new`.
bench-e2e:
	bash bench/run.sh

# The benchmark's correctness gate: seeds 1 and 2 at 1 s per workload, their
# exact counts compared with bench/expected.json. bench exits non-zero when
# an operation fails; a count that moved prints a DRIFT line but leaves the
# exit status alone, so the target fails on either. wire_paced's counts
# scale with the run length and are compared only at the default 15 s, so
# this gate covers the other three workloads.
bench-gate:
	@for seed in 1 2; do \
		out="$$(bash bench/run.sh -seed $$seed -seconds 1 -trace 0)"; status=$$?; \
		echo "$$out" | grep -E 'DRIFT|"correct"'; \
		if [ $$status -ne 0 ]; then echo "bench-gate: seed $$seed exited $$status"; exit 1; fi; \
		if echo "$$out" | grep -q DRIFT; then echo "bench-gate: seed $$seed drifted from bench/expected.json"; exit 1; fi; \
	done

# The size metrics ROADMAP tracks, counted its way: non-test lines of the
# tracked *.go files outside bench/, exported With* options in those
# files, packages, the exported API of package sieve as lines of
# `go doc -short .`, how many of those are exported *Stats types, and the
# exported identifiers of every library package (all but the main packages
# under cmd/ and bench/) as the sum of their `go doc -short` lines. A
# report, not a gate.
size:
	@files="$$(git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^bench/')"; \
	echo "non-test lines outside bench/: $$(cat $$files | wc -l)"; \
	echo "exported With* options: $$(grep -hE '^func With[A-Z]' $$files | wc -l)"; \
	echo "packages: $$($(GO) list ./... | wc -l)"; \
	echo "exported API of package sieve (go doc -short .): $$($(GO) doc -short . | wc -l)"; \
	echo "exported *Stats types of package sieve: $$($(GO) doc -short . | grep -cE '^type [A-Z][A-Za-z]*Stats\b')"; \
	echo "exported identifiers outside bench/: $$(for p in $$($(GO) list -f '{{if ne .Name "main"}}{{.ImportPath}}{{end}}' ./...); do $(GO) doc -short $$p; done | wc -l)"

# Everything CI checks, in CI's order.
ci: build vet fmt lint reach test-short test-fma test-portable test bench wire-smoke chaos-smoke obs-smoke split-smoke anchors-stress docs-lint fuzz-smoke bench-gate
