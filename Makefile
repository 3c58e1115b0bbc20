# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race cover bench bench-report experiments fuzz faults fmt vet lint serve-smoke

# `race` is part of the default verify: the parallel simulation engine
# (internal/engine) must stay race-clean, and CI enforces the same set.
all: build vet lint test race serve-smoke

build:
	go build ./...

vet:
	go vet ./...

# dynexcheck is the repo's own static-analysis pass (DESIGN.md §9, §14):
# determinism of the simulation core, exhaustive FSM switches, passive
# telemetry hooks, context-aware sleeps, %w error wrapping, the
# batch-kernel stats rule (DESIGN.md §11), and the flow-sensitive
# checks — lock discipline, goroutine lifetime, atomic/direct access
# mixing, and //dynexcheck:hot allocation-freedom. The gofmt -s -l
# step fails on any file that needs (re)formatting. CI times this
# target against a 120s budget.
lint:
	go run ./cmd/dynexcheck
	@unformatted=$$(gofmt -s -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt -s -l:"; echo "$$unformatted"; exit 1; fi

fmt:
	gofmt -s -w .

test:
	go test ./...

race:
	go test -race ./...

cover:
	go test ./internal/... -coverprofile=cover.out && go tool cover -func=cover.out | tail -1

bench:
	go test -bench=. -benchmem .

# Machine-readable run telemetry for the committed BENCH_10.json: a
# standard sweep with -report (see DESIGN.md §8). The grid is the
# column-kernel showcase (DESIGN.md §15): one synthesized gcc stream
# feeds 50 direct-mapped geometry cells, and each 10-cell power-of-two
# size column retires in a single stream pass, so the sweep is priced
# at roughly one decode per reference per (line, policy) pair instead
# of one pass per cell. Run cell by cell on the batch kernels, the
# same grid measured ~190M refs/sec on the reference box (BENCH_8's
# 16-cell mixed-policy grid recorded ~157M); `go test -bench Column
# ./internal/policy` compares the two per layer. CI's bench-smoke job
# checks the RunReport on a smoke-scale sweep over all four column
# families instead, so this target no longer runs in CI.
bench-report:
	go run ./cmd/dynex-sweep -bench gcc -refs 2000000 \
		-sizes 1024,2048,4096,8192,16384,32768,65536,131072,262144,524288 \
		-lines 4,8,16,32,64 \
		-policies dm -report BENCH_10.json > /dev/null

# Regenerate every paper figure (writes experiments_1m.txt).
experiments:
	go run ./cmd/dynex-experiments -refs 1000000 | tee experiments_1m.txt

# Every fuzz target in the module, 30s each; CI fails if a Fuzz func is
# missing from this list.
fuzz:
	go test -fuzz FuzzFSMInvariants -fuzztime 30s ./internal/core/
	go test -fuzz FuzzQuietSet -fuzztime 30s ./internal/core/
	go test -fuzz FuzzFileReader -fuzztime 30s ./internal/trace/
	go test -fuzz FuzzRoundTrip -fuzztime 30s ./internal/trace/
	go test -fuzz FuzzSimulateDM -fuzztime 30s ./internal/opt/
	go test -fuzz FuzzJournalOpen -fuzztime 30s ./internal/checkpoint/
	go test -fuzz FuzzParseSpec -fuzztime 30s ./internal/policy/
	go test -fuzz FuzzColumn -fuzztime 30s ./internal/conformance/

# End-to-end crash-safety smoke for dynex-serve (DESIGN.md §12): start
# the service (race-enabled build), submit a job, SIGTERM it mid-run,
# restart over the same data directory, and assert the served CSV is
# byte-identical to a direct dynex-sweep run of the same grid with no
# lost or duplicated cells. CI runs the same script.
serve-smoke:
	sh scripts/serve_smoke.sh

# Fault-injection suite: once with the fixed default seed (the set CI
# covers), once with a random seed. The seed is printed so a randomized
# failure replays exactly with `go test ./internal/faultinject -faultseed=N`.
faults:
	go test -count=1 ./internal/faultinject/
	@seed=$$(od -An -N4 -tu4 /dev/urandom | tr -d ' '); \
	echo "randomized run: -faultseed=$$seed"; \
	go test -count=1 ./internal/faultinject/ -faultseed=$$seed
