GO ?= go

.PHONY: verify vet build test race bench perf fuzz faults trace sched kernels cross service vldsplit deadline apicheck

verify: vet build race bench trace sched kernels cross service vldsplit deadline apicheck ## full CI gate: vet + build + race tests (every package, the streaming pipeline, the public API and its deprecated shims among them) + bench smoke + traced decode + scheduler gate + kernel matrix + cross-compile + service gate + split-decode gate + deadline gate + deprecated-API grep

# go vet, and gofmt: any file gofmt would rewrite fails the gate.
vet:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

# Kernel gate: every test of the kernel packages — by package, so a renamed
# or new test cannot drop out of the gate — which covers the
# tier-equivalence matrix (each equivalence test internally sweeps
# scalar/SWAR/asm against the scalar oracle), the coefficient path (block
# VLD kernel against its bit-serial reference, mask-driven dequant against
# the dense one; the asm tier's one-call coded-block kernel against the
# scalar dequant → IDCT → clamp chain), the write-once reconstruction
# (prediction into the frame, in-place average and residual add against
# the two-buffer one; windowed macroblock header against its per-symbol
# reference) and the goldens; the same matrix under the race detector
# with the asm tier force-disabled (the race runtime cannot see into
# assembly, so race coverage comes from the pure-Go tiers), golden
# bit-exactness with every forced tier — by package as well, engine and
# feeding goldens of ./internal/stream/ included, and -count=1 because the
# tier is read at package init, where go's test cache does not see the
# variable and would answer from a run of another tier — and every
# micro-benchmark of the kernel packages, by package too, so that a renamed
# or new benchmark (BenchmarkReconBlock: the coded-block kernel against the
# chain it replaced) cannot drop out.
kernels:
	$(GO) test ./internal/kernels/ ./internal/motion/ ./internal/dct/ ./internal/decoder/ ./internal/core/ ./internal/vlc/ ./internal/quant/ ./internal/mpeg2/
	MPEG2_KERNELS=scalar $(GO) test -count=1 -race ./internal/kernels/ ./internal/motion/ ./internal/dct/ ./internal/decoder/ ./internal/core/ ./internal/stream/
	MPEG2_KERNELS=swar $(GO) test -count=1 -race ./internal/kernels/ ./internal/motion/ ./internal/dct/ ./internal/decoder/ ./internal/core/ ./internal/stream/
	$(GO) test -run=NONE -bench=. -benchtime=10x ./internal/motion/ ./internal/dct/ ./internal/decoder/ ./internal/mpeg2/ ./internal/quant/

# Cross-compile + per-arch vet gate: both SIMD targets must build and
# their assembly must pass vet's asmdecl checks even when developing on
# the other architecture.
cross:
	GOOS=linux GOARCH=amd64 $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=amd64 $(GO) vet ./internal/kernels/ ./internal/motion/ ./internal/dct/ ./internal/decoder/
	GOOS=linux GOARCH=arm64 $(GO) vet ./internal/kernels/ ./internal/motion/ ./internal/dct/ ./internal/decoder/

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Observability gate: traced decodes under the race detector (bit
# exactness in every mode, event presence, exported Chrome JSON
# validated: well-formed, monotonic timestamps, balanced span counts),
# by package (the root package's traced-decode tests run by package in
# `make race`), plus a real traced run through the CLI report path.
trace:
	$(GO) test -race ./internal/obs/
	$(GO) run ./cmd/mpeg2bench -timeline -trace /tmp/mpeg2par-trace.json > /dev/null

# Adaptive-scheduler gate: the slice queue (task grain, readiness rule,
# affinity, packing, auto mode) with the split-decode and assist goldens
# that live beside it, the simulator and the cost-model/LPT/auto-tune
# policy under the race detector — by package, so a renamed or new test
# cannot drop out of the gate (the scheduler tests of ./internal/stream/
# and the root package run by package in `make race`) — the slice
# modes' frame-memory bound twenty times over, so that a schedule-dependent
# breach shows up here and not by luck, and the LPT-vs-slice-order makespan
# smoke (profiled costs replayed in the simulator).
sched:
	$(GO) test -race ./internal/core/ ./internal/simsched/ ./internal/sched/
	$(GO) test -count=20 -run TestFrameMemoryBounded ./internal/core/
	$(GO) test -run TestSchedCompareSmoke -v ./internal/bench/

# Multi-stream service gate: every test of the server package under the
# race detector — by package, so a renamed or new test cannot drop out of
# the gate: the 64-stream overload smoke (zero wedged streams, zero leaks,
# fairness, per-stream obs lanes validated as Chrome trace), the
# overload-teardown suite, the frame-lending contract (tenant isolation,
# the store's bound under churn, one worker's scratch across geometries)
# and the 2000-stream soak — plus a real load-harness run through the CLI.
# (The public Server API tests run by package under -race in `make race`.)
service:
	$(GO) test -race -count=1 ./internal/server/
	$(GO) run ./cmd/mpeg2load -streams 64 > /dev/null

# Intra-slice split-decode gate: the index package under the race
# detector, by package — so a renamed or new test cannot drop out of the
# gate — and the experiment, which must show the split actually
# parallelizes a one-slice-per-picture stream. (The core goldens — indexed,
# speculative, poisoned-index, faulted, the incremental verify chain — run
# by package under -race in `make sched`; the public index API through the
# streaming path runs by package under -race in `make race`.)
vldsplit:
	$(GO) test -race -count=1 ./internal/vldsplit/
	$(GO) test -count=1 -run TestVLDSplitExperiment -v ./internal/bench/

# Deadline-aware dispatch gate: the scaled-down fair-vs-EDF study smoke.
# (The server package — EDF ordering and slack-classification units, the
# miss/shed disjointness and teardown-accounting tests, the EDF
# bit-exactness goldens — runs by package under -race in `make service`;
# the cost-model cold-start regressions and core's assist goldens in
# `make sched`.)
deadline:
	$(GO) test -count=1 -run TestDeadlineExperimentSmoke -v ./internal/bench/

# Deprecated-API grep gate: cmd/ and examples/ must stay on the
# streaming entry points (Decode/ScanReader); the deprecated wrappers
# exist for external compatibility only.
apicheck:
	@! grep -rn 'mpeg2par\.DecodeAll\|mpeg2par\.DecodeParallel\|mpeg2par\.Scan(' cmd/ examples/ \
		|| { echo 'apicheck: cmd/ and examples/ must use Decode/ScanReader, not deprecated wrappers' >&2; exit 1; }

# Append a perf-trajectory run to the current BENCH_<n>.json.
perf:
	$(GO) run ./cmd/mpeg2bench -perf -label $(or $(LABEL),local)

# Short corpus-seeded fuzz runs: the one list of the repo's fuzz targets
# (CI calls this target). The two targets that decode on several goroutines
# see schedule-dependent coverage, which go's minimizer takes for an
# interesting input and spends its default 60 s on, fuzzing nothing
# meanwhile (15 executions in 20 s); they run with the minimizer off.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzFindStartCode -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzScan -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzResilientDecode -fuzztime=$(FUZZTIME) -fuzzminimizetime=0 ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzSpeculativeSplit -fuzztime=$(FUZZTIME) -fuzzminimizetime=0 ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/decoder
	$(GO) test -run=NONE -fuzz=FuzzReconBlock -fuzztime=$(FUZZTIME) ./internal/decoder
	$(GO) test -run=NONE -fuzz=FuzzStreamScan -fuzztime=$(FUZZTIME) ./internal/stream
	$(GO) test -run=NONE -fuzz=FuzzDecodeBlock -fuzztime=$(FUZZTIME) ./internal/mpeg2
	$(GO) test -run=NONE -fuzz=FuzzDecodeMBHeader -fuzztime=$(FUZZTIME) ./internal/mpeg2

# Corruption sweep: PSNR vs loss rate under each resilience policy.
faults:
	$(GO) run ./cmd/mpeg2bench -faults
