# Convenience entry points; everything is plain dune underneath.

.PHONY: all build test check certify-packs serve-smoke ledger-smoke bench-exec trace-demo clean

all: build

build:
	dune build

test:
	dune runtest

# The default verify path: build, unit tests, the rule-pack gate, the
# serving suite once more (daemon end-to-end: engines, malformed and
# oversized input, overload rejection, telemetry, columnar execution,
# rule packs, clean shutdown), a company-schema
# query run columnar from the CLI and checked against the interpreter,
# a company-schema query searched under both engines, and the ledger's
# gates (one second per workload; fails on any gate, including
# compiled-vs-interpreter agreement and search path validation).
check:
	dune build && dune runtest && $(MAKE) certify-packs && $(MAKE) serve-smoke
	dune exec bin/kolaopt.exe -- run "select [e, (select m from m in e.mentors where m.salary > e.salary)] from e in E" --schema company --execute compiled --layout columnar --verify --exec-stats
	for e in bfs egraph; do dune exec bin/kolaopt.exe -- search "select [d, flatten(select {e.ename} from e in E where e.dept = d)] from d in D" --schema company --engine $$e || exit 1; done
	$(MAKE) ledger-smoke

# The OQL → result ledger at smoke size, every gate on.
ledger-smoke:
	dune build ./bench/ledger/ledger.exe ./bin/kolaoptd.exe
	./_build/default/bench/ledger/ledger.exe --smoke

# Cold-cache certification of every committed COKO rule pack and of the
# catalog (coko/catalog): exhaustive small-scope checking, exit 3 on the
# first pack with an uncertified rule.  Every pack under coko/unsound is
# unsound (the paper's printed rule 13; rule instances that erase a
# failing hole), so each must be rejected with exit code 3.
certify-packs:
	dune exec bin/kolaopt.exe -- certify coko/*.coko coko/catalog/*.coko
	for f in coko/unsound/*.coko; do \
	  echo "$$f must be rejected (exit 3):"; \
	  dune exec bin/kolaopt.exe -- certify $$f; test $$? -eq 3 || exit 1; \
	done

# The daemon's test suite (test/test_server.ml) on its own: the protocol,
# outcome identity with the CLI, the columnar layout, rule packs, and a
# real socket under malformed, oversized and overloading clients.
serve-smoke:
	dune exec test/main.exe -- test server

# Compiled execution vs the hashed interpreter on the company workload at
# 10^3/10^5/10^6 objects, with a layout x jobs grid per cell (row/1,
# columnar/1, columnar/4; several minutes; interpreted runs of the
# structurally quadratic queries are skipped at 10^6 and replaced by a
# 10^4 sampled agreement check); writes BENCH_exec.json and fails on a
# disagreement, an unchecked cell, rich_mentors row-compiled below the
# interpreter at >= 10^5 (medians of 5 interleaved runs each), or
# columnar jobs > 1 over 2x jobs = 1 below one morsel.
# `dune exec bench/main.exe -- --fast` stops at 10^5.
bench-exec:
	dune exec bench/main.exe

# Regenerate the committed telemetry demo trace: a traced BFS search of
# the paper's K4 query, loadable in chrome://tracing or Perfetto.
trace-demo:
	dune exec bin/kolaopt.exe -- search --paper k4 --depth 4 --trace examples/trace_k4.json --stats

clean:
	dune clean
