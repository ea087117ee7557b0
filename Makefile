# Convenience entry points; everything is plain dune underneath.

.PHONY: all build test check certify-packs serve-smoke ledger-smoke bench bench-fast bench-smoke bench-parallel bench-hashcons bench-egraph bench-serve bench-exec baseline trace-demo clean

all: build

build:
	dune build

test:
	dune runtest

# The default verify path: build, unit tests, the CI-sized bench slice,
# the serving smoke (daemon end-to-end: engines, malformed and oversized
# input, overload rejection, telemetry, clean shutdown), and the ledger's
# gates (one second per workload; fails on any gate, including
# compiled-vs-interpreter agreement and search path validation).
check:
	dune build && dune runtest && dune build @bench-smoke && $(MAKE) certify-packs && $(MAKE) serve-smoke && $(MAKE) ledger-smoke

# The OQL → result ledger at smoke size, every gate on.
ledger-smoke:
	dune build ./bench/ledger/ledger.exe ./bin/kolaoptd.exe
	./_build/default/bench/ledger/ledger.exe --smoke

# Cold-cache certification of every committed COKO rule pack: exhaustive
# small-scope checking, exit 3 on the first pack with an uncertified rule.
certify-packs:
	dune exec bin/kolaopt.exe -- certify coko/*.coko

# In-process daemon smoke: one request per engine plus a malformed line
# and a deterministic overload, asserting a clean shutdown.
serve-smoke:
	dune exec bin/kolaoptd.exe -- smoke

# Full benchmark sweep (several minutes); writes BENCH_engine.json.
bench:
	dune exec bench/main.exe

bench-fast:
	dune exec bench/main.exe -- --fast

# Engine-internals only, CI-sized; the alias keeps it one command.
bench-smoke:
	dune build @bench-smoke

# The 1/2/4/8-domain exploration scaling curve; writes BENCH_parallel.json.
bench-parallel:
	dune exec bench/main.exe -- --parallel

# The hash-consed core: O(1) equality/hash/key micros and exploration at
# 1/2/4 domains; writes BENCH_hashcons.json.
bench-hashcons:
	dune exec bench/main.exe -- --hashcons

# Equality saturation vs bounded BFS on the Figure 4/6/8 workloads:
# cost parity at the default depth and wall-clock vs a depth-5 symmetric
# closure exploration; writes BENCH_egraph.json.
bench-egraph:
	dune exec bench/main.exe -- --egraph

# Serving throughput/latency: an in-process kolaoptd driven over its
# Unix-domain socket at concurrency 1/4/16/64, cold vs warm shared
# caches, bfs vs egraph; writes BENCH_serve.json.
bench-serve:
	dune exec bench/main.exe -- --serve

# Compiled execution vs the hashed interpreter on the company workload at
# 10^3/10^5/10^6 objects, with a layout x jobs grid per cell (row/1,
# columnar/1, columnar/4; several minutes; interpreted runs of the
# structurally quadratic queries are skipped at 10^6 and replaced by a
# 10^4 sampled agreement check); writes BENCH_exec.json.  `--fast`
# after `--exec` stops at 10^5.
bench-exec:
	dune exec bench/main.exe -- --exec

# Regenerate the committed engine baseline at the repo root.
baseline:
	dune exec bench/main.exe -- --smoke --out BENCH_engine.json

# Regenerate the committed telemetry demo trace: a traced BFS search of
# the paper's K4 query, loadable in chrome://tracing or Perfetto.
trace-demo:
	dune exec bin/kolaopt.exe -- search --paper k4 --depth 4 --trace examples/trace_k4.json --stats

clean:
	dune clean
