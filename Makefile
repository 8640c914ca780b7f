# Convenience targets.  PYTHONPATH=src keeps the in-tree package
# importable without an editable install.
PY := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python

.PHONY: test lint bench bench-pytest bench-pump chaos fleet-chaos \
	profile-smoke pump-smoke fleet-smoke cc-smoke bench-compare

## tier-1 verification: lint gate, the chaos soak, the fleet
## supervision soak, the full unit/integration suite, then the perf
## guards (profiling harness smoke test, pump smoke, fleet determinism
## smoke, and the regression diff against the committed
## BENCH_core.json -- which also enforces the absolute hotpath_pump /
## multi_session / fleet floors and the checkpoint-overhead ceiling)
test: lint chaos fleet-chaos
	$(PY) -m pytest -x -q
	$(MAKE) profile-smoke
	$(MAKE) pump-smoke
	$(MAKE) fleet-smoke
	$(MAKE) cc-smoke
	$(MAKE) bench-compare

## one short scenario under cProfile; asserts the JSON artifact exists
profile-smoke:
	@rm -f .profile_smoke.json
	$(PY) -m repro profile hotpath --top 5 --out .profile_smoke.json
	@test -s .profile_smoke.json || \
		(echo "profile-smoke: no JSON artifact produced" && exit 1)
	@$(PY) -c "import json; json.load(open('.profile_smoke.json'))"
	@rm -f .profile_smoke.json

## quick sanity on the batched scheduler: a small transfer must drain
## completely through the run-until-blocked pump (catches deadlocks
## and starvation fast, before the heavier bench-compare runs)
pump-smoke:
	@$(PY) -c "from repro.perfbench import bench_hotpath_pump as b; \
		r = b(262_144); assert r['complete'], r; \
		print('pump-smoke: complete, %.0f packets/sec' \
		% r['packets_per_sec'])"

## fleet determinism contract: a small sharded population run must
## engage >= 2 pool workers and merge to the exact digest of the
## serial run (order-independent sketch/sink arithmetic)
fleet-smoke:
	@$(PY) -c "from repro.experiments.fleet import (ABPopulationDriver, \
		FleetConfig, run_fleet_driver); \
		cfg = FleetConfig(users=8, seed=5); \
		a = run_fleet_driver(ABPopulationDriver(cfg), workers=1, \
		shard_size=3); \
		b = run_fleet_driver(ABPopulationDriver(cfg), workers=2, \
		shard_size=3); \
		da, db = a.sink.digest(), b.sink.digest(); \
		assert da == db, (da, db); \
		assert b.result.workers_effective >= 2, b.result; \
		print('fleet-smoke: %d sessions, serial==sharded digest %s...' \
		% (a.result.tasks, da[:12]))"

## scheme x CC matrix smoke: every registered congestion controller
## (newreno, cubic, lia, bbr, mpbbr) drives a tiny A/B day end-to-end
## under sp and xlink; catches a controller that wedges the pump or
## produces degenerate QoE before the full report runs
cc-smoke:
	@$(PY) -c "from repro.experiments.report import section_ccmatrix; \
		s = section_ccmatrix(2); \
		rows = [l for l in s.body.splitlines() \
		if l.startswith('|')][2:]; \
		assert len(rows) == 10, s.body; \
		print('cc-smoke: %d scheme x cc matrix rows' % len(rows))"

## the full 4 MB pump benchmark, printed as JSON (no report written);
## fails unless the transfer completed
bench-pump:
	$(PY) -c "from repro.perfbench import bench_hotpath_pump; \
		import json; r = bench_hotpath_pump(); \
		print(json.dumps(r, indent=2)); assert r['complete'], r"

## fail on >30% regression vs the committed BENCH_core.json in the
## event_loop, trace_link, hotpath and multi_session families, and on
## any breach of the absolute hotpath_pump / multi_session floors
bench-compare:
	$(PY) tools/bench_compare.py

## 12 fixed-seed chaos scenarios; fails on any uncaught exception or
## invariant violation (see repro.experiments.chaos)
chaos:
	$(PY) -m repro chaos --scenarios 12 --seed 7

## seeded worker-fault soak over the fleet supervisor: crash / hang /
## raise / corrupt shards must retry to a digest bit-identical to the
## fault-free run, sticky faults must quarantine honestly, and a
## campaign killed at a day boundary must resume bit-identically
## (see repro.experiments.fleetchaos)
fleet-chaos:
	$(PY) -m repro fleet-chaos

## ruff with the pinned config when installed, stdlib fallback otherwise
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests tools benchmarks; \
	else \
		$(PY) tools/lint.py src tests tools benchmarks; \
	fi

## run the core perf suite once (rounds=1) and write BENCH_core.json;
## refuses to overwrite an existing report from a dirty git tree
bench:
	$(PY) -m repro bench

## the same measurements under pytest-benchmark (no report written)
bench-pytest:
	$(PY) -m pytest benchmarks/test_perf_core.py -q
