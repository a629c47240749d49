# Convenience targets around dune. `make check` is the full gate: build,
# the complete test suite (which pins the structural counters: trace-tier
# coverage, verifier decodes, Table II cycles), a quick benchmark pass
# (including the profiler section and the execution-tier section, whose
# differential gate asserts byte-identical observables and the committed
# nBench golden output digests under both tiers), a forensics smoke run
# that must die with the documented exit code, a chaos smoke campaign that
# must stay fail-closed, a fixed-seed differential fuzz campaign (with
# adversarial witness mutations) that must stay sound and complete, a
# gateway smoke batch fanned out over two domains with the attested audit
# plane on (the sealed log must verify and pass its schema check), a
# persistent server smoke (cold serve with sealed-cache persistence, then
# a restart that must come back warm, both schema-checked and
# audit-verified), a server chaos mini-campaign that must stay fail-closed
# across kills and sealed-state tampering, and schema checks on every
# machine-readable artifact produced. Wall-clock regressions are gated by
# bench/e2e against the BENCHMARK.json bounds, not here.

.PHONY: all build test bench check clean

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

check:
	dune build
	dune runtest
	dune exec bench/main.exe -- --quick table2 profile tier
	dune exec bin/json_check.exe -- --bench bench/results/latest.json
	dune exec bin/json_check.exe -- bench/results/profile-numeric-sort.json
	dune exec bin/deflectionc.exe -- run examples/minic/violate_store.mc \
	  --forensics=bench/results/forensics-smoke.json; test $$? -eq 9
	dune exec bin/json_check.exe -- bench/results/forensics-smoke.json
	dune exec bin/deflectionc.exe -- chaos --seeds 50 -o bench/results/chaos.json
	dune exec bin/json_check.exe -- --chaos bench/results/chaos.json
	dune exec bin/deflectionc.exe -- fuzz --seeds 60 --mutants 60 \
	  --witness-mutants 60 --base-seed 1 -o bench/results/fuzz.json
	dune exec bin/json_check.exe -- --fuzz bench/results/fuzz.json
	dune exec bin/deflectionc.exe -- gateway --sessions 6 --jobs 2 \
	  --audit bench/results/audit.json -o bench/results/gateway.json
	dune exec bin/json_check.exe -- --gateway bench/results/gateway.json
	dune exec bin/deflectionc.exe -- audit verify bench/results/audit.json
	dune exec bin/json_check.exe -- --audit bench/results/audit.json
	rm -rf bench/results/server-state
	dune exec bin/deflectionc.exe -- serve --offered 60 --rounds 6 --batch 8 \
	  --queue 24 --jobs 2 --state bench/results/server-state \
	  --audit bench/results/server-audit.json -o bench/results/server.json
	dune exec bin/json_check.exe -- --server bench/results/server.json
	dune exec bin/deflectionc.exe -- audit verify bench/results/server-audit.json --seed 7
	dune exec bin/deflectionc.exe -- serve --offered 60 --rounds 6 --batch 8 \
	  --queue 24 --jobs 2 --state bench/results/server-state --expect-warm \
	  -o bench/results/server-warm.json
	dune exec bin/json_check.exe -- --server bench/results/server-warm.json
	dune exec bin/deflectionc.exe -- serve --campaign --seeds 2 --base-seed 1005 \
	  --offered 36 --state bench/results/server-chaos-state \
	  -o bench/results/server-chaos.json

clean:
	dune clean
	rm -rf bench/results
