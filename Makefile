# Convenience targets.  PYTHONPATH=src keeps the in-tree package
# importable without an editable install.
PY := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python

.PHONY: test lint chaos fleet-chaos fleet-smoke cc-smoke bench

## tier-1 verification: lint gate, the fleet supervision soak, the
## full unit/integration suite (tests/test_golden.py runs the 12-scenario
## chaos soak and checks its digest), the fleet determinism and scheme
## x CC smokes, the figure tests (figures/test_claims.py runs each claim
## of repro.experiments.claims.CLAIMS that has a figures scale once,
## prints the table the report writes and asserts every shape verdict),
## then the benchmark's own tests (every workload completes with
## failed == 0, sharded digest == serial digest, digests and counts
## repeat; see bench/README.md)
test: lint fleet-chaos
	$(PY) -m pytest -x -q --durations=15
	$(MAKE) fleet-smoke
	$(MAKE) cc-smoke
	$(PY) -m pytest figures -q
	$(PY) -m pytest bench -q

## fleet determinism contract: a small sharded population run must
## merge to the exact digest of the serial run (order-independent
## sketch/sink arithmetic) on exactly 2 warm workers that are reused
## across shards (more shards than processes, no respawn) and leave no
## child process behind
fleet-smoke:
	@$(PY) -c "import multiprocessing; \
		from repro.experiments.fleet import (ABPopulationDriver, \
		FleetConfig, run_fleet_driver); \
		cfg = FleetConfig(users=8, seed=5); \
		a = run_fleet_driver(ABPopulationDriver(cfg), workers=1, \
		shard_size=3); \
		b = run_fleet_driver(ABPopulationDriver(cfg), workers=2, \
		shard_size=3); \
		da, db = a.sink.digest(), b.sink.digest(); \
		assert da == db, (da, db); \
		assert b.result.shards > b.result.workers_effective == 2, b.result; \
		assert b.result.respawns == 0, b.result; \
		assert multiprocessing.active_children() == []; \
		print('fleet-smoke: %d sessions, serial==sharded digest %s...' \
		% (a.result.tasks, da[:12]))"

## scheme x CC matrix smoke: every registered congestion controller
## (newreno, cubic, lia, bbr, mpbbr) drives a tiny A/B day end-to-end
## under sp and xlink; catches a controller that wedges the pump or
## produces degenerate QoE before the full report runs
cc-smoke:
	@$(PY) -c "from repro.experiments.claims import CLAIMS; \
		[claim] = [c for c in CLAIMS if c.name == 'ccmatrix']; \
		header, rows = claim.table(claim.run(2)); \
		assert len(rows) == 10, rows; \
		print('cc-smoke: %d scheme x cc matrix rows' % len(rows))"

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

## ruff with the pinned config when installed; tools/lint.py always (it
## is the stdlib fallback, and holds the file-size, module-cache,
## per-stream-dict, dead-public-name and no-gc-call gates ruff lacks)
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests tools figures bench; \
	fi
	@$(PY) tools/lint.py src tests tools figures bench

## the repo's benchmark: six workloads, end-to-end metrics and digests
## (bench/README.md lists the other modes)
bench:
	$(PY) -m bench
