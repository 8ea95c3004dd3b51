# SHMT reproduction — common entry points. Stdlib-only Go; no other deps.

GO ?= go

.PHONY: all check build reachcheck test race fuzzsmoke bench benchsmoke benche2e servesmoke clustersmoke figures-check experiments fmt fmt-check vet loc clean

all: check

# check is the pre-merge gate: formatting, build, vet, every non-test
# function being linked into some binary, tests, the race detector over the
# whole module (the host worker pool runs everywhere now), a short
# fuzz of the /v1/execute decoder against encoding/json, of the header
# sanitisers, of the -chaos grammar and of the daemons' tenant flags, a
# one-shot benchmark pass so the bench suites can't silently rot, the
# end-to-end harness's own vet and tests (a nested module that imports
# internal/ packages, so the root `go test ./...` cannot see it break), the
# serving smoke test so shmtserved's coalescing/drain path stays live, and
# the cluster smoke test so the router tier's failover/re-admission path
# stays live. The contracts the benchmarks used to state as snapshots (zero
# allocations, zero copied bytes, a bounded request) are tests in the `test`
# stage. CI (.github/workflows/ci.yml) runs exactly these stages.
check: fmt-check build vet reachcheck test race fuzzsmoke benchsmoke benche2e servesmoke clustersmoke

build:
	$(GO) build ./...

# reachcheck builds every binary (the commands and the benchmark harness) and
# fails on a non-test function none of them links: code only tests reach
# belongs in a _test.go file of its package. It also fails when a
# binary links reflect method lookup (html/template does), which would keep
# every exported method alive and hide such code, and on a stale exemption.
# The script lists the few exemptions, each with the test that needs it.
reachcheck:
	GO="$(GO)" sh scripts/reachcheck.sh

# TESTFLAGS lets CI pass extra flags (e.g. -shuffle=on) without forking the
# target.
TESTFLAGS ?=

test:
	$(GO) test $(TESTFLAGS) ./...

# The second pass reruns the engine, the pool, the kernels, the devices and
# the recycler at 1, 2 and 4 procs: the deterministic loop computes admitted
# HLOPs as pool tasks on recycled jobs, each task's kernel and device casts
# run as plain loops, every pool worker shares the recycler's lists, and the
# hangs and reuse races that the pool's helping wait can produce need at
# least two procs to show.
race:
	$(GO) test -race $(TESTFLAGS) ./...
	$(GO) test -race -cpu 1,2,4 $(TESTFLAGS) ./internal/core/ ./internal/parallel/ ./internal/kernels/ ./internal/device/... ./internal/tensor/

# fuzzsmoke gives each fuzz target ten seconds: the /v1/execute decoder
# against encoding/json, the router's head read (FuzzPeekRequest) against the
# decoder, the router's index and the partitions it splices against the
# decoder, the reply's float writer (FuzzAppendFloat) against encoding/json on
# raw bit patterns, the two header sanitisers (tenant, trace ID) both tiers
# apply at admission, the fused INT8 round trip against calibration plus
# QuantizeOne / DequantizeOne on arbitrary bit patterns, the FFT's shared
# plans against the twiddle recurrence on arbitrary bit patterns, every vector
# lane against its Go twin on arbitrary bit patterns, the -chaos fault
# plan grammar (every accepted plan finite and in range), the -tenant /
# -tenant-limit grammars of both daemons (every admitted tenant name, ':'
# included, round-trips), the scheduler's top-K rule (every HLOP on an
# eligible queue, Critical exactly on the most accurate one, criticality
# order kept within a window), the VOP rule (every name Parse accepts
# round-trips, every VOP Validate accepts has a non-negative halo, a finite
# work factor of at least 1 computed in bounded time, and HLOPs with positive
# work), and the partitioner (Partition and Replay over views, against the
# materialised-copy datapath, for any shape, halo and partition count). (go
# test takes one -fuzz target per run.)
fuzzsmoke:
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeRequest$$' -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzPeekRequest$$' -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzSpliceRequest$$' -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzAppendFloat$$' -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzSanitizeTenant$$' -fuzztime=10s ./internal/serve/
	$(GO) test -run='^$$' -fuzz='^FuzzSanitizeTraceID$$' -fuzztime=10s ./internal/serve/
	$(GO) test -run='^$$' -fuzz='^FuzzInt8Round$$' -fuzztime=10s ./internal/kernels/
	$(GO) test -run='^$$' -fuzz='^FuzzFFTPlan$$' -fuzztime=10s ./internal/kernels/
	$(GO) test -run='^$$' -fuzz='^FuzzLanes$$' -fuzztime=10s ./internal/lanes/
	$(GO) test -run='^$$' -fuzz='^FuzzParseSpec$$' -fuzztime=10s ./internal/chaos/
	$(GO) test -run='^$$' -fuzz='^FuzzTenantFlags$$' -fuzztime=10s ./cmd/shmtserved/
	$(GO) test -run='^$$' -fuzz='^FuzzTenantFlags$$' -fuzztime=10s ./cmd/shmtrouterd/
	$(GO) test -run='^$$' -fuzz='^FuzzTopK$$' -fuzztime=10s ./internal/sched/
	$(GO) test -run='^$$' -fuzz='^FuzzValidate$$' -fuzztime=10s ./internal/vop/
	$(GO) test -run='^$$' -fuzz='^FuzzPartitionViews$$' -fuzztime=10s ./internal/core/

bench:
	$(GO) test -bench=. -benchmem ./...

# benchsmoke runs every benchmark once — the 256² kernel suite,
# BenchmarkKernelsHLOP (the same kernels at the shapes the engine runs them),
# BenchmarkScatter (a scattered request through an in-process router and
# two backends) and BenchmarkWriteResponse (the reply writer beside its
# encoding/json oracle) included — and drives shmtrun's telemetry exporters end to
# end: the run must produce a loadable Perfetto trace and a JSON report.
benchsmoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...
	$(GO) run ./cmd/shmtrun -bench Sobel -side 256 -partitions 8 \
		-trace-out /tmp/shmt-smoke-trace.json -report-out /tmp/shmt-smoke-report.json
	@rm -f /tmp/shmt-smoke-trace.json /tmp/shmt-smoke-report.json

# benche2e vets and smoke-tests the repo benchmark's harness (BENCHMARK.json,
# benchmarks/): every workload untraced twice and traced once at tiny counts,
# outputs verified. It is the only place an internal/ API change that breaks
# the harness shows up before the benchmark itself is run.
# -cpu 1: the smoke test wants every ladder rung dearer than the one inside it
# from one sample each, and on two Ps a scattered request comes back through
# the router sooner than the same body sent whole to one backend (the halves
# decode side by side), so `cluster.router_overhead_ms` reads the scatter's
# gain and not the router's cost — negative since PR 19 made the router cheap.
# On one P nothing overlaps and the figure is the router's own work. GOGC=off:
# a collection inside one of those single samples is the rest of the noise
# (the smoke run's heap peaks near 130 MB without it). DESIGN §11 has the runs.
benche2e:
	cd benchmarks && $(GO) vet ./... && GOGC=off $(GO) test -cpu 1 ./...

# servesmoke boots shmtserved on a free port, fires concurrent request
# volleys, and asserts every request succeeds, the micro-batcher coalesces
# what queues up behind a busy dispatcher (batch_size_sum grows by more than
# batch_size_count while GEMM wedges run), /healthz is ok, and SIGTERM drains
# to a clean exit.
servesmoke:
	sh scripts/servesmoke.sh

# clustersmoke boots shmtrouterd fronting two shmtserved backends, fires
# concurrent volleys through the router, SIGKILLs one backend mid-volley and
# asserts zero lost client requests, that the breaker/rehash counters moved,
# that restarting the backend gets it re-admitted by a health probe, that a
# new backend can self-register, that it answers every request with 200 under
# a seeded plan of transient GPU faults while its HLOP retry counter moves,
# that a large VOP scatter-gathers, and that SIGTERM drains every process
# cleanly.
clustersmoke:
	sh scripts/clustersmoke.sh

# figures-check is the paper-fidelity gate: it regenerates the committed
# results_all.txt (-exp all) and results_fig9_abl.txt (-exp
# fig9,ablation,stability) into a temp dir and requires a byte-identical
# result, with the resident-cache ablation's measured "wall ms" column masked. A
# blocking CI job, but not part of `make check`: about five minutes on two
# CPUs is too slow for the pre-merge loop.
figures-check:
	GO="$(GO)" sh scripts/figurescheck.sh

# Regenerate every table and figure of the paper's evaluation (plus the
# ablations and the seed-stability study). Takes several minutes.
experiments:
	$(GO) run ./cmd/shmtbench -exp all

fmt:
	gofmt -l -w .

# fmt-check fails (and lists the files) if anything is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The second pass type-checks the build without assembly (the amd64 AVX
# loops have Go stubs elsewhere); vet's asmdecl pass checks the assembly's
# frames against its Go declarations in the first. The third type-checks a
# 32-bit build, where int is 32 bits wide and a constant beyond it overflows.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) vet ./...

# loc prints one number: lines of non-test Go and assembly outside
# benchmarks/, the series ROADMAP quotes.
loc:
	@find . \( -name '*.go' ! -name '*_test.go' -o -name '*.s' \) ! -path './benchmarks/*' -exec cat {} + | wc -l

clean:
	$(GO) clean ./...
