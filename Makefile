# Convenience targets for the psync workspace.

.PHONY: all test lint doc examples experiments bench bench-pairs loc loc-check

all: test lint

test:
	cargo test --workspace

lint:
	cargo clippy --workspace --all-targets -- -D warnings
	cargo fmt --all --check

doc:
	cargo doc --workspace --no-deps

examples:
	for ex in quickstart register_demo clock_skew_stress mmt_pipeline \
	          event_ordering failure_detector replicated_counter; do \
	    cargo run -q --release --example $$ex || exit 1; \
	done

# Regenerate the EXPERIMENTS.md tables (stdout).
experiments:
	cargo run --release -p psync-bench --bin experiments

bench:
	cargo bench -p psync-bench

# Alternating parent/change pairs of one benchmark workload (see
# scripts/bench_pairs.sh): make bench-pairs PARENT_BIN=… CHANGE_BIN=…
# WORKLOAD=campaign_fleet [PAIRS=…] [SECONDS=…] [SEED=…]; unset ones take
# the script's defaults.
bench-pairs:
	scripts/bench_pairs.sh "$(PARENT_BIN)" "$(CHANGE_BIN)" "$(WORKLOAD)" "$(PAIRS)" "$(SECONDS)" "$(SEED)"

# Lines of Rust: product source (the figure ROADMAP item 4 budgets
# against) on its own line, then everything that exercises it. `vendor/`
# and every `target/` are left out.
loc:
	@find crates/*/src -name "*.rs" | xargs cat | wc -l | xargs printf "%6d crates/*/src\n"
	@find src tests examples crates/*/tests crates/*/benches benchmark/src benchmark/tests \
	    -name "*.rs" | xargs cat | wc -l \
	    | xargs printf "%6d src, tests, benches, examples, benchmark/{src,tests}\n"

# ROADMAP's "the round ends at or below today's figure", as a gate: the
# product-source line count may not exceed the budget. Lower it when a PR
# removes code; a PR that has to raise it says so in its diff.
LOC_BUDGET = 34732
loc-check:
	@n=$$(find crates/*/src -name "*.rs" | xargs cat | wc -l); \
	if [ $$n -gt $(LOC_BUDGET) ]; then \
	    echo "crates/*/src is $$n lines, over LOC_BUDGET = $(LOC_BUDGET)"; exit 1; \
	else \
	    echo "crates/*/src is $$n lines (LOC_BUDGET = $(LOC_BUDGET))"; \
	fi
