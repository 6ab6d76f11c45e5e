.PHONY: all build test check lint racecheck faultcheck servecheck chaoscheck \
	bench benchcheck benchbaseline fmt clean

all: build

build:
	dune build

test:
	dune runtest

# the CI gate: everything compiles and every suite passes
check: build test

# the static-analysis gate: rewrite-certificate soundness over the
# scenario fixtures, the SC-catalog linter, declared lock-order analysis
# over lib/srv + friends, and interface coverage — exits non-zero on any
# error and leaves the full report in check-report.txt
lint: build
	dune exec bin/softdb.exe -- check --root . --report check-report.txt

# the concurrency-soundness gate: drive real TCP traffic (including an
# online index build) with the runtime lock-order witness armed, dump
# the observed acquisition-order edge graph, then cross-validate it
# against the declared @lock-order rank table and the @guarded-by
# annotations — red on any rank inversion, deadlock cycle, unannotated
# shared mutable state, or a declared rank the traffic never exercised
# (unless waived with a reason)
racecheck: build
	rm -f LOCKDEP.graph racecheck-report.txt
	timeout 300 dune exec bench/loadgen.exe -- --clients 4 --requests 32 \
	  --ddl-online --lockdep-dump LOCKDEP.graph
	dune exec bin/softdb.exe -- check --concurrency --root . \
	  --lockdep-graph LOCKDEP.graph --report racecheck-report.txt

# the crash matrix: a simulated crash at every registered fault point,
# recovery must land on exactly the pre- or post-transaction state
faultcheck:
	dune exec test/test_recovery.exe

# the concurrency gate: protocol round-trips, the single-writer lock,
# scheduler admission control, and 8 concurrent sessions through the
# in-memory transport — under a watchdog so a deadlock fails instead of
# hanging the build
servecheck:
	timeout 300 dune exec test/test_srv.exe

# the chaos gate: the torn-tail/bit-flip salvage matrix (part of the
# recovery suite), then an overload burst — many clients against one
# worker and a two-slot queue — that must trip the circuit breaker and
# finish with zero queued jobs dying of deadline expiry; the breaker /
# backoff counters land in CHAOS.json
chaoscheck: build
	timeout 300 dune exec test/test_recovery.exe -- test salvage
	timeout 300 dune exec test/test_recovery.exe -- test edges
	rm -f CHAOS.json
	timeout 300 dune exec bench/loadgen.exe -- --clients 12 --workers 1 \
	  --queue 2 --requests 6 --expect-breaker --json CHAOS.json

bench:
	dune exec bench/main.exe

# the plan-quality gate: run the quick scenario registry, fold in a small
# loadgen summary, and diff the result against the committed baseline —
# deterministic metrics (rows scanned, q-error, rewrite counts, plan-cache
# hits, WAL bytes) gate hard; wall-clock drift is report-only.  The
# registry includes the partitioned purchase/part{1,4,8} suite (per-
# partition counters and rewrite counts with zero slack) and the
# purchase/idx covering scenario; the online-index crash matrix runs
# under dune runtest (test_idx)
benchcheck: build
	dune exec bench/benchrun.exe -- --quick --label ci --out BENCH.json
	dune exec bench/loadgen.exe -- --clients 4 --requests 32 --lockdep \
	  --json BENCH.json
	dune exec bin/softdb.exe -- benchdiff bench/baseline.json BENCH.json

# refresh the committed baseline after an intentional plan-quality change;
# review the diff of bench/baseline.json like any other code change
benchbaseline: build
	dune exec bench/benchrun.exe -- --quick --label baseline \
	  --out bench/baseline.json
	dune exec bench/loadgen.exe -- --clients 4 --requests 32 --lockdep \
	  --json bench/baseline.json

fmt:
	dune fmt

clean:
	dune clean
