GO ?= go

.PHONY: verify vet build test race bench kernels cross smoke fuzz

verify: vet build race bench kernels cross smoke ## full CI gate

# go vet, and gofmt: any file gofmt would rewrite fails the gate.
vet:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

# Kernel gate: every kernel package's tests on the host's tier; the same
# tests and the decode goldens on the forced scalar and SWAR tiers under
# the race detector (bit-exact frames whatever the tier; the race runtime
# cannot see into assembly, so race coverage of the pixel paths comes from
# the pure-Go tiers; -count=1 because the tier is read at package init,
# where go's test cache cannot see it); and every kernel micro-benchmark.
kernels:
	$(GO) test ./internal/kernels/ ./internal/bits/ ./internal/motion/ ./internal/dct/ ./internal/decoder/ ./internal/core/ ./internal/vlc/ ./internal/quant/ ./internal/mpeg2/
	MPEG2_KERNELS=scalar $(GO) test -count=1 -race ./internal/kernels/ ./internal/bits/ ./internal/motion/ ./internal/dct/ ./internal/decoder/ ./internal/core/ ./internal/stream/
	MPEG2_KERNELS=swar $(GO) test -count=1 -race ./internal/kernels/ ./internal/bits/ ./internal/motion/ ./internal/dct/ ./internal/decoder/ ./internal/core/ ./internal/stream/
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

# End-to-end runs the package tests do not make: a traced decode through
# the CLI report path and its Chrome-trace export, a 64-stream overload of
# the decode service through the load tool (which fails on a wedged,
# leaking or untraced stream), and, twenty times over, the slice modes'
# frame-memory bound, the poisoned-frame golden (slice mode recycles
# frames in schedule order, so a pixel no decode writes may ship on some
# runs only) and the split goldens (which segments verify while others
# still run depends on the schedule), so that a schedule-dependent breach
# shows up here and not by luck.
smoke:
	$(GO) run ./cmd/mpeg2bench -timeline -trace /tmp/mpeg2par-trace.json > /dev/null
	$(GO) run ./cmd/mpeg2load -streams 64 > /dev/null
	$(GO) test -count=20 -run '^(TestFrameMemoryBounded|TestResilientGolden|TestSplitIndexedBitExact|TestSplitDefaultGrainBitExact|TestPoisonedIndexFallsBack)$$' ./internal/core/

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
	$(GO) test -run=NONE -fuzz=FuzzIndexUnmarshal -fuzztime=$(FUZZTIME) ./internal/vldsplit
	$(GO) test -run=NONE -fuzz=FuzzDecodeBlock -fuzztime=$(FUZZTIME) ./internal/mpeg2
	$(GO) test -run=NONE -fuzz=FuzzDecodeMBHeader -fuzztime=$(FUZZTIME) ./internal/mpeg2
	$(GO) test -run=NONE -fuzz=FuzzPredictMB -fuzztime=$(FUZZTIME) ./internal/motion
