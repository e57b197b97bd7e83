# VYRD reproduction — common workflows.

GO ?= go

.PHONY: all build vet test race bench bench-smoke bench-compare fuzz soak-smoke ltl-smoke tables examples check clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The injected Table 1 bugs are intentional data races; tests exercising
# them skip themselves under the detector (see internal/racecheck), so this
# gates the correct implementations and the checker itself; `make test`
# runs the planted-race legs detector-free. Between them the two targets
# run every test of every package once each way, so no target below
# re-runs a `go test -run X ./pkg` subset: what remains needs a built
# binary, a second process or a fuzzer.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Smoke, not measurement: the benchmark's quick pass over all six workloads
# (a few seconds each, tiny inputs), then one iteration of each ablation
# benchmark in the root bench_test.go. CI runs this.
bench-smoke:
	$(GO) run ./benchmark -quick
	$(GO) test -run=NONE -bench='Ablation|CommitDriven' -benchtime=1x .

# Compare two result files written by `go run ./benchmark -out`: per
# workload x metric medians, delta, bound and verdict; non-zero on WORSE.
# A performance claim is this over alternating runs of the two commits,
# nothing else (see EXPERIMENTS.md).
#   make bench-compare A=parent.json B=change.json
bench-compare:
	$(GO) run ./benchmark -compare $(A) $(B)

# Short fuzz smoke: a few seconds per target keeps the corpus seeds honest
# without turning CI into a fuzzing farm. Each -fuzz regex must match
# exactly one target, hence the anchors.
fuzz:
	$(GO) test -run=NONE -fuzz='^FuzzEntryRoundTrip$$' -fuzztime=10s ./internal/event/
	$(GO) test -run=NONE -fuzz='^FuzzTornFrames$$' -fuzztime=5s ./internal/event/
	$(GO) test -run=NONE -fuzz='^FuzzRecoverArbitraryBytes$$' -fuzztime=10s ./internal/event/
	$(GO) test -run=NONE -fuzz='^FuzzReproRoundTrip$$' -fuzztime=5s ./internal/sched/
	$(GO) test -run=NONE -fuzz='^FuzzLinearizeArbitraryHistory$$' -fuzztime=10s ./internal/linearize/
	$(GO) test -run=NONE -fuzz='^FuzzParseProp$$' -fuzztime=10s ./internal/ltl/

# Crash/recover/replay chaos soak: 200 seeded byte-level crash points in
# fault mode plus a handful of SIGKILLed child processes in proc mode,
# every recovered prefix re-checked against its uninterrupted reference.
# Race-enabled; any failure prints a vyrdsoak/1 repro string. CI runs this.
soak-smoke:
	$(GO) run -race ./cmd/vyrdsoak -mode fault -seed 1 -iters 200 -ops 12 -sync 8
	$(GO) run -race ./cmd/vyrdsoak -mode proc -seed 1 -iters 6 -ops 60 -sync 4 -k 3000 -kill 60ms

# The vyrdx exit-code contract across a real process boundary: the
# schedule search finds, shrinks and replays the planted lock-order
# inversion, and vyrdx exits 2 on a found violation (hence the inverted
# exit check). CI runs this.
ltl-smoke:
	$(GO) build -o vyrdx.smoke ./cmd/vyrdx
	./vyrdx.smoke -mode ltl -seeds 300 -stress 100 > /dev/null; st=$$?; rm -f vyrdx.smoke; test $$st -eq 2

# Regenerate the paper's evaluation tables (Section 7).
tables:
	$(GO) run ./cmd/vyrdbench -table all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/boxwood
	$(GO) run ./examples/javalib
	$(GO) run ./examples/atomized
	$(GO) run ./examples/scanfs

check: build vet test race fuzz soak-smoke ltl-smoke

# Remove test binaries, profiles and fuzzing leftovers.
clean:
	rm -f *.test */*.test */*/*.test *.out *.prof
	$(GO) clean -testcache
